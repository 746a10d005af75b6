// Package cluster implements the Clustering mining service: k-means++ over
// a mixed-type feature embedding (z-scored continuous dimensions, one-hot
// discrete states, binary existence flags), with soft cluster membership at
// prediction time. It covers the paper's "segmentation" capability and backs
// the DMX Cluster() prediction function.
package cluster

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
)

// ServiceName is the USING-clause name of this algorithm.
const ServiceName = "Clustering"

// Algorithm implements core.Algorithm.
type Algorithm struct{}

// New returns the Clustering service.
func New() *Algorithm { return &Algorithm{} }

// Name implements core.Algorithm.
func (*Algorithm) Name() string { return ServiceName }

// Description implements core.Algorithm.
func (*Algorithm) Description() string {
	return "K-means++ segmentation over mixed discrete/continuous/existence attributes"
}

// SupportsPredictTable implements core.Algorithm.
func (*Algorithm) SupportsPredictTable() bool { return false }

type params struct {
	k        int
	maxIters int
	seed     int64
}

func parseParams(p map[string]string) (params, error) {
	out := params{k: 4, maxIters: 50, seed: 42}
	for key, v := range p {
		switch strings.ToUpper(key) {
		case "CLUSTER_COUNT":
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return out, fmt.Errorf("cluster: bad CLUSTER_COUNT %q", v)
			}
			out.k = n
		case "MAX_ITERATIONS":
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return out, fmt.Errorf("cluster: bad MAX_ITERATIONS %q", v)
			}
			out.maxIters = n
		case "SEED":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return out, fmt.Errorf("cluster: bad SEED %q", v)
			}
			out.seed = n
		default:
			return out, fmt.Errorf("cluster: unknown parameter %q", key)
		}
	}
	return out, nil
}

// featureMap lays attributes out in a dense feature vector.
type featureMap struct {
	space *core.AttributeSpace
	// offset[i] is the first dimension of attribute i; width[i] its count
	// (1 for continuous/existence, len(States) for discrete).
	offset []int
	width  []int
	dims   int
	// mean/std normalize continuous dimensions.
	mean []float64
	std  []float64
}

func buildFeatureMap(cs *core.Caseset) *featureMap {
	sp := cs.Space
	fm := &featureMap{space: sp, offset: make([]int, sp.Len()), width: make([]int, sp.Len())}
	for i := range sp.Attrs {
		a := sp.Attr(i)
		fm.offset[i] = fm.dims
		switch a.Kind {
		case core.KindContinuous:
			fm.width[i] = 1
		case core.KindExistence:
			fm.width[i] = 1
		default:
			fm.width[i] = len(a.States)
		}
		fm.dims += fm.width[i]
	}
	fm.mean = make([]float64, fm.dims)
	fm.std = make([]float64, fm.dims)
	// Normalization statistics for continuous dims.
	count := make([]float64, fm.dims)
	sumsq := make([]float64, fm.dims)
	for ci := 0; ci < cs.Len(); ci++ {
		c := cs.Case(ci)
		for i := range sp.Attrs {
			if sp.Attr(i).Kind != core.KindContinuous {
				continue
			}
			if v, ok := c.Continuous(i); ok {
				d := fm.offset[i]
				fm.mean[d] += v
				sumsq[d] += v * v
				count[d]++
			}
		}
	}
	for d := 0; d < fm.dims; d++ {
		if count[d] > 0 {
			fm.mean[d] /= count[d]
			v := sumsq[d]/count[d] - fm.mean[d]*fm.mean[d]
			if v < 1e-12 {
				v = 1
			}
			fm.std[d] = math.Sqrt(v)
		} else {
			fm.std[d] = 1
		}
	}
	return fm
}

// embed renders a case as a dense vector; missing values land on the
// attribute's neutral point (0 after normalization, uniform for discrete).
func (fm *featureMap) embed(c *core.Case) []float64 {
	v := make([]float64, fm.dims)
	for i := range fm.space.Attrs {
		a := fm.space.Attr(i)
		d := fm.offset[i]
		switch a.Kind {
		case core.KindContinuous:
			if x, ok := c.Continuous(i); ok {
				v[d] = (x - fm.mean[d]) / fm.std[d]
			}
		case core.KindExistence:
			if c.Has(i) {
				v[d] = 1
			}
		default:
			st := c.Discrete(i)
			if st >= 0 && st < fm.width[i] {
				v[d+st] = 1
			}
		}
	}
	return v
}

// Model is a trained segmentation: centroids in embedded space.
type Model struct {
	fm        *featureMap
	centroids [][]float64
	sizes     []float64
	caseCount int
	// sigma2 scales soft-membership weights (mean squared distance).
	sigma2 float64
}

// Train implements core.Algorithm. Clustering ignores targets: every
// attribute participates in the embedding, and any attribute can be
// "predicted" from cluster profiles afterwards.
func (*Algorithm) Train(ctx context.Context, cs *core.Caseset, targets []int, p map[string]string, _ int) (core.TrainedModel, error) {
	prm, err := parseParams(p)
	if err != nil {
		return nil, err
	}
	if cs.Len() == 0 {
		return nil, fmt.Errorf("cluster: empty caseset")
	}
	fm := buildFeatureMap(cs)
	points := make([][]float64, cs.Len())
	weights := make([]float64, cs.Len())
	for i := 0; i < cs.Len(); i++ {
		c := cs.Case(i)
		points[i] = fm.embed(&c)
		weights[i] = c.Weight
	}
	k := prm.k
	if k > len(points) {
		k = len(points)
	}
	rng := rand.New(rand.NewSource(prm.seed))
	centroids := kmeansPlusPlusInit(points, k, rng)
	assign := make([]int, len(points))
	for iter := 0; iter < prm.maxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		changed := false
		for i, pt := range points {
			best, bestD := 0, math.Inf(1)
			for c, ct := range centroids {
				if d := sqDist(pt, ct); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids (weighted).
		for c := range centroids {
			centroids[c] = make([]float64, fm.dims)
		}
		tot := make([]float64, k)
		for i, pt := range points {
			c := assign[i]
			tot[c] += weights[i]
			for d, x := range pt {
				centroids[c][d] += x * weights[i]
			}
		}
		for c := range centroids {
			if tot[c] > 0 {
				for d := range centroids[c] {
					centroids[c][d] /= tot[c]
				}
			} else {
				// Re-seed an empty cluster at the farthest point.
				fi := farthestPoint(points, centroids)
				centroids[c] = append([]float64(nil), points[fi]...)
			}
		}
	}
	m := &Model{fm: fm, centroids: centroids, sizes: make([]float64, k), caseCount: cs.Len()}
	var msd float64
	for i, pt := range points {
		c := assign[i]
		m.sizes[c] += weights[i]
		msd += sqDist(pt, centroids[c])
	}
	m.sigma2 = msd/float64(len(points)) + 1e-9
	return m, nil
}

func farthestPoint(points, centroids [][]float64) int {
	bestI, bestD := 0, -1.0
	for i, pt := range points {
		d := math.Inf(1)
		for _, ct := range centroids {
			if s := sqDist(pt, ct); s < d {
				d = s
			}
		}
		if d > bestD {
			bestI, bestD = i, d
		}
	}
	return bestI
}

func kmeansPlusPlusInit(points [][]float64, k int, rng *rand.Rand) [][]float64 {
	centroids := make([][]float64, 0, k)
	first := points[rng.Intn(len(points))]
	centroids = append(centroids, append([]float64(nil), first...))
	d2 := make([]float64, len(points))
	for len(centroids) < k {
		var total float64
		for i, pt := range points {
			d := math.Inf(1)
			for _, ct := range centroids {
				if s := sqDist(pt, ct); s < d {
					d = s
				}
			}
			d2[i] = d
			total += d
		}
		if total <= 0 {
			// All points coincide with centroids; duplicate the first.
			centroids = append(centroids, append([]float64(nil), points[0]...))
			continue
		}
		r := rng.Float64() * total
		pick := 0
		for i, d := range d2 {
			r -= d
			if r <= 0 {
				pick = i
				break
			}
		}
		centroids = append(centroids, append([]float64(nil), points[pick]...))
	}
	return centroids
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// AlgorithmName implements core.TrainedModel.
func (m *Model) AlgorithmName() string { return ServiceName }

// K returns the number of clusters.
func (m *Model) K() int { return len(m.centroids) }

// membership returns soft cluster weights for a case.
func (m *Model) membership(c core.Case) []float64 {
	pt := m.fm.embed(&c)
	w := make([]float64, len(m.centroids))
	var z float64
	for i, ct := range m.centroids {
		w[i] = math.Exp(-sqDist(pt, ct)/(2*m.sigma2)) * (m.sizes[i] + 1)
		z += w[i]
	}
	if z <= 0 {
		for i := range w {
			w[i] = 1 / float64(len(w))
		}
		return w
	}
	for i := range w {
		w[i] /= z
	}
	return w
}

// PredictCluster implements core.ClusterPredictor.
func (m *Model) PredictCluster(c core.Case) (core.Prediction, error) {
	w := m.membership(c)
	var p core.Prediction
	for i, wi := range w {
		p.Histogram = append(p.Histogram, core.Bucket{
			Value:   clusterCaption(i),
			Prob:    wi,
			Support: m.sizes[i],
		})
	}
	p.SortHistogram()
	return p, nil
}

func clusterCaption(i int) string { return fmt.Sprintf("Cluster %d", i+1) }

// Predict implements core.TrainedModel: reconstruct the attribute from the
// membership-weighted cluster centroids — continuous attributes as weighted
// means, discrete ones as mixed one-hot profiles.
func (m *Model) Predict(c core.Case, target int) (core.Prediction, error) {
	if target < 0 || target >= m.fm.space.Len() {
		return core.Prediction{}, fmt.Errorf("cluster: attribute index %d out of range", target)
	}
	a := m.fm.space.Attr(target)
	w := m.membership(c)
	d := m.fm.offset[target]
	switch a.Kind {
	case core.KindContinuous:
		var mean float64
		for i, ct := range m.centroids {
			mean += w[i] * ct[d]
		}
		// De-normalize.
		val := mean*m.fm.std[d] + m.fm.mean[d]
		var variance float64
		for i, ct := range m.centroids {
			x := ct[d]*m.fm.std[d] + m.fm.mean[d]
			variance += w[i] * (x - val) * (x - val)
		}
		return core.Prediction{
			Estimate: val, Prob: 1, Support: float64(m.caseCount),
			Stdev:     math.Sqrt(variance),
			Histogram: []core.Bucket{{Value: val, Prob: 1, Support: float64(m.caseCount), Variance: variance}},
		}, nil
	case core.KindExistence:
		var p1 float64
		for i, ct := range m.centroids {
			p1 += w[i] * ct[d]
		}
		p1 = clamp01(p1)
		pr := core.Prediction{Histogram: []core.Bucket{
			{Value: "present", Prob: p1},
			{Value: "absent", Prob: 1 - p1},
		}}
		pr.SortHistogram()
		return pr, nil
	default:
		var pr core.Prediction
		for st, name := range a.States {
			var p float64
			for i, ct := range m.centroids {
				p += w[i] * ct[d+st]
			}
			pr.Histogram = append(pr.Histogram, core.Bucket{Value: name, Prob: clamp01(p)})
		}
		normalize(pr.Histogram)
		pr.SortHistogram()
		return pr, nil
	}
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

func normalize(h []core.Bucket) {
	var z float64
	for _, b := range h {
		z += b.Prob
	}
	if z <= 0 {
		return
	}
	for i := range h {
		h[i].Prob /= z
	}
}

// PredictTable implements core.TrainedModel.
func (m *Model) PredictTable(core.Case, string) (core.Prediction, error) {
	return core.Prediction{}, fmt.Errorf("cluster: %s does not support nested TABLE prediction", ServiceName)
}

// Content implements core.TrainedModel: one CLUSTER node per cluster, with
// the centroid profile as the distribution (top deviating features first).
func (m *Model) Content() *core.ContentNode {
	root := &core.ContentNode{Type: core.NodeModel, Caption: ServiceName, Support: float64(m.caseCount)}
	for i, ct := range m.centroids {
		cn := root.AddChild(&core.ContentNode{
			Type:    core.NodeCluster,
			Caption: clusterCaption(i),
			Support: m.sizes[i],
		})
		cn.Distribution = m.centroidProfile(ct)
	}
	root.AssignIDs(1)
	return root
}

// centroidProfile summarizes a centroid attribute by attribute.
func (m *Model) centroidProfile(ct []float64) []core.StateStat {
	var out []core.StateStat
	for i := range m.fm.space.Attrs {
		a := m.fm.space.Attr(i)
		d := m.fm.offset[i]
		switch a.Kind {
		case core.KindContinuous:
			out = append(out, core.StateStat{
				Value: fmt.Sprintf("%s = %.4g", a.Name, ct[d]*m.fm.std[d]+m.fm.mean[d]),
				Prob:  1,
			})
		case core.KindExistence:
			out = append(out, core.StateStat{
				Value: fmt.Sprintf("%s = present", a.Name),
				Prob:  clamp01(ct[d]),
			})
		default:
			best, bestP := -1, 0.0
			for st := 0; st < m.fm.width[i]; st++ {
				if ct[d+st] > bestP {
					best, bestP = st, ct[d+st]
				}
			}
			if best >= 0 && best < len(a.States) {
				out = append(out, core.StateStat{
					Value: fmt.Sprintf("%s = '%s'", a.Name, a.States[best]),
					Prob:  clamp01(bestP),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Prob > out[j].Prob })
	if len(out) > 16 {
		out = out[:16]
	}
	return out
}

// Parameters implements core.ParameterDescriber.
func (*Algorithm) Parameters() []core.ParamDesc {
	return []core.ParamDesc{
		{Name: "CLUSTER_COUNT", Type: "LONG", Default: "4",
			Description: "Number of clusters (k)"},
		{Name: "MAX_ITERATIONS", Type: "LONG", Default: "50",
			Description: "Maximum Lloyd iterations"},
		{Name: "SEED", Type: "LONG", Default: "42",
			Description: "Deterministic seeding for k-means++"},
	}
}
