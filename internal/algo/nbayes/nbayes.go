// Package nbayes implements the Naive_Bayes mining service: per-target
// class priors plus conditionally independent likelihoods — Laplace-smoothed
// multinomials for discrete and existence inputs, Gaussians for continuous
// inputs. Targets must be discrete-like (discrete, discretized, or
// existence); continuous targets need Decision_Trees or Clustering.
package nbayes

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/rowset"
)

// ServiceName is the USING-clause name of this algorithm.
const ServiceName = "Naive_Bayes"

// Algorithm implements core.Algorithm.
type Algorithm struct{}

// New returns the Naive_Bayes service.
func New() *Algorithm { return &Algorithm{} }

// Name implements core.Algorithm.
func (*Algorithm) Name() string { return ServiceName }

// Description implements core.Algorithm.
func (*Algorithm) Description() string {
	return "Naive Bayes classification with Gaussian likelihoods for continuous inputs"
}

// SupportsPredictTable implements core.Algorithm.
func (*Algorithm) SupportsPredictTable() bool { return false }

type params struct {
	// laplace is the additive smoothing constant (PSEUDOCOUNT).
	laplace float64
	// minVariance floors Gaussian variances to avoid singular likelihoods.
	minVariance float64
}

func parseParams(p map[string]string) (params, error) {
	out := params{laplace: 1, minVariance: 1e-6}
	for k, v := range p {
		switch strings.ToUpper(k) {
		case "PSEUDOCOUNT":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f < 0 {
				return out, fmt.Errorf("nbayes: bad PSEUDOCOUNT %q", v)
			}
			out.laplace = f
		case "MINIMUM_VARIANCE":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f <= 0 {
				return out, fmt.Errorf("nbayes: bad MINIMUM_VARIANCE %q", v)
			}
			out.minVariance = f
		default:
			return out, fmt.Errorf("nbayes: unknown parameter %q", k)
		}
	}
	return out, nil
}

// classifier is the trained state for one target attribute. The per-input
// tables are slices indexed by attribute ordinal, nil for what is no input.
type classifier struct {
	target int
	// prior[s] is the weighted count of class s.
	prior []float64
	total float64
	// disc[input][s][state] counts input states per class (discrete and
	// existence inputs; existence uses states {0,1}).
	disc [][][]float64
	// gauss[input][s] is a running Gaussian estimate per class.
	gauss [][]gaussStat
	// inputs in deterministic order, for content rendering.
	inputs []int

	// What Predict adds up, computed once when training ends: the log prior
	// of each class, logDisc[input][s][state] the smoothed log-likelihood of
	// a state, norm[input][s] the Gaussian of a continuous input.
	logPrior []float64
	logDisc  [][][]float64
	norm     [][]gaussNorm
	// values[s] is class s as a prediction shows it, boxed once.
	values []rowset.Value
}

// gaussNorm is a class-conditional Gaussian ready to evaluate: logNorm is
// -½·log(2πσ²).
type gaussNorm struct{ mean, variance, logNorm float64 }

type gaussStat struct{ n, sum, sumsq float64 }

// varianceFloor is the absolute lower bound on Gaussian variances. parseParams
// rejects MINIMUM_VARIANCE <= 0, but a Model can reach meanVar with a
// zero-value params struct (e.g. one rebuilt by a future decoder), and a
// constant attribute then yields σ²=0 — whose log-likelihood term
// -0.5·log(2πσ²) is +Inf/NaN and poisons every posterior. meanVar therefore
// clamps unconditionally, regardless of the configured parameter.
const varianceFloor = 1e-12

func (g gaussStat) meanVar(minVar float64) (float64, float64) {
	if minVar < varianceFloor {
		minVar = varianceFloor
	}
	if g.n <= 0 {
		return 0, minVar
	}
	mean := g.sum / g.n
	v := g.sumsq/g.n - mean*mean
	// v can also go slightly negative (or NaN on overflow) from floating-point
	// cancellation in sumsq/n - mean²; the same clamp catches both.
	if !(v >= minVar) {
		v = minVar
	}
	return mean, v
}

// Model is a trained Naive Bayes model: one classifier per target.
type Model struct {
	space       *core.AttributeSpace
	prm         params
	classifiers map[int]*classifier
	targetOrder []int
	caseCount   int
}

// Train implements core.Algorithm.
func (*Algorithm) Train(ctx context.Context, cs *core.Caseset, targets []int, p map[string]string, _ int) (core.TrainedModel, error) {
	prm, err := parseParams(p)
	if err != nil {
		return nil, err
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("nbayes: model has no PREDICT columns")
	}
	m := &Model{space: cs.Space, prm: prm, classifiers: make(map[int]*classifier),
		targetOrder: targets, caseCount: cs.Len()}
	for _, t := range targets {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ta := cs.Space.Attr(t)
		if ta.Kind == core.KindContinuous {
			return nil, fmt.Errorf("nbayes: target %q is CONTINUOUS; use DISCRETIZED or another algorithm", ta.Name)
		}
		cl, err := m.trainOne(cs, t)
		if err != nil {
			return nil, err
		}
		m.classifiers[t] = cl
	}
	return m, nil
}

func nStates(a *core.Attribute) int {
	if a.Kind == core.KindExistence {
		return 2
	}
	return len(a.States)
}

func stateOf(c *core.Case, a *core.Attribute, idx int) int {
	if a.Kind == core.KindExistence {
		if c.Has(idx) {
			return 1
		}
		return 0
	}
	return c.Discrete(idx)
}

func (m *Model) trainOne(cs *core.Caseset, target int) (*classifier, error) {
	ta := m.space.Attr(target)
	k := nStates(ta)
	if k == 0 {
		return nil, fmt.Errorf("nbayes: target %q has no observed states", ta.Name)
	}
	n := m.space.Len()
	cl := &classifier{
		target: target,
		prior:  make([]float64, k),
		disc:   make([][][]float64, n),
		gauss:  make([][]gaussStat, n),
	}
	for i := range m.space.Attrs {
		a := m.space.Attr(i)
		if i == target || !a.IsInput {
			continue
		}
		if a.NestedKey != "" && a.Column == ta.Column && a.NestedKey == ta.NestedKey {
			continue // same nested row as the target
		}
		cl.inputs = append(cl.inputs, i)
		if a.Kind == core.KindContinuous {
			cl.gauss[i] = make([]gaussStat, k)
		} else {
			table := make([][]float64, k)
			for s := range table {
				table[s] = make([]float64, nStates(a))
			}
			cl.disc[i] = table
		}
	}
	// One pass over each case's cells. An existence input absent from a case
	// has no cell to visit: its "absent" count is the class total less what
	// the present cases weighed, settled after the pass.
	for ci := 0; ci < cs.Len(); ci++ {
		c := cs.Case(ci)
		s := stateOf(&c, ta, target)
		if s < 0 || s >= k {
			continue
		}
		w := c.Weight * c.ProbOf(target)
		cl.prior[s] += w
		cl.total += w
		for _, cell := range c.Cells() {
			in := int(cell.Attr)
			if g := cl.gauss[in]; g != nil {
				v := cell.Value()
				g[s].n += w
				g[s].sum += v * w
				g[s].sumsq += v * v * w
				continue
			}
			table := cl.disc[in]
			switch {
			case table == nil:
			case m.space.Attr(in).Kind == core.KindExistence:
				table[s][1] += w * cell.Prob
				table[s][0] -= w
			case cell.Code >= 0 && int(cell.Code) < len(table[s]):
				table[s][cell.Code] += w * cell.Prob
			}
		}
	}
	if cl.total <= 0 {
		return nil, fmt.Errorf("nbayes: no labeled cases for target %q", ta.Name)
	}
	for _, in := range cl.inputs {
		if m.space.Attr(in).Kind == core.KindExistence {
			for s := range cl.prior {
				cl.disc[in][s][0] = max(cl.disc[in][s][0]+cl.prior[s], 0) // rounding may leave -ε
			}
		}
	}
	cl.prepare(m.prm, ta)
	return cl, nil
}

// prepare computes the tables Predict reads. A likelihood that cannot be
// estimated — a class that never saw the input, a state no class saw, with
// PSEUDOCOUNT 0 — is no evidence either way: it adds nothing, like a missing
// value, where its logarithm would be -Inf or NaN for every class.
func (cl *classifier) prepare(prm params, ta *core.Attribute) {
	k := len(cl.prior)
	cl.logPrior = make([]float64, k)
	cl.values = make([]rowset.Value, k)
	for s := range cl.logPrior {
		cl.logPrior[s] = math.Log((cl.prior[s] + prm.laplace) / (cl.total + prm.laplace*float64(k)))
		cl.values[s] = stateName(ta, s)
	}
	cl.logDisc = make([][][]float64, len(cl.disc))
	cl.norm = make([][]gaussNorm, len(cl.gauss))
	for _, in := range cl.inputs {
		if g := cl.gauss[in]; g != nil {
			cl.norm[in] = make([]gaussNorm, k)
			for s := range g {
				mean, variance := g[s].meanVar(prm.minVariance)
				cl.norm[in][s] = gaussNorm{mean, variance, -0.5 * math.Log(2*math.Pi*variance)}
			}
			continue
		}
		cl.logDisc[in] = make([][]float64, k)
		for s, table := range cl.disc[in] {
			var rowTotal float64
			for _, v := range table {
				rowTotal += v
			}
			denom := rowTotal + prm.laplace*float64(len(table))
			ll := make([]float64, len(table))
			for st := range table {
				seen := slices.ContainsFunc(cl.disc[in], func(t []float64) bool { return t[st]+prm.laplace != 0 })
				if denom > 0 && seen {
					ll[st] = math.Log((table[st] + prm.laplace) / denom)
				}
			}
			cl.logDisc[in][s] = ll
		}
	}
}

// AlgorithmName implements core.TrainedModel.
func (m *Model) AlgorithmName() string { return ServiceName }

// Predict implements core.TrainedModel: posterior over target states via
// log-likelihood accumulation.
func (m *Model) Predict(c core.Case, target int) (core.Prediction, error) {
	cl, err := m.classifier(target)
	if err != nil {
		return core.Prediction{}, err
	}
	probs := make([]float64, len(cl.prior))
	m.posterior(cl, c, probs)
	return cl.histogram(probs), nil
}

// PredictInto implements core.BatchPredictor: Predict's posterior, on the
// stack while there are at most 16 classes, with a histogram built only when
// out carries histograms or a NaN leaves the order to the histogram's own rule.
func (m *Model) PredictInto(c core.Case, target int, out *core.PredictionBatch, i int) error {
	cl, err := m.classifier(target)
	if err != nil {
		return err
	}
	var buf [16]float64
	probs := append(buf[:0], cl.logPrior...)
	m.posterior(cl, c, probs)
	if s := cl.best(probs); s >= 0 && i >= len(out.Histogram) {
		out.Estimate[i], out.Prob[i], out.Support[i], out.Stdev[i] = cl.values[s], probs[s], cl.prior[s], 0
		return nil
	}
	out.Set(i, cl.histogram(probs))
	return nil
}

func (m *Model) classifier(target int) (*classifier, error) {
	cl, ok := m.classifiers[target]
	if !ok {
		return nil, fmt.Errorf("nbayes: attribute %q is not a prediction target", m.space.Attr(target).Name)
	}
	return cl, nil
}

// posterior writes the probability of every class of cl given c to probs.
func (m *Model) posterior(cl *classifier, c core.Case, probs []float64) {
	logp := append(probs[:0], cl.logPrior...)
	// Inputs and the case's cells are both in attribute order: walk them
	// together, adding the terms in the order they were always added in.
	cells, j := c.Cells(), 0
	for _, in := range cl.inputs {
		for j < len(cells) && int(cells[j].Attr) < in {
			j++
		}
		present := j < len(cells) && int(cells[j].Attr) == in
		if g := cl.norm[in]; g != nil {
			if present {
				v := cells[j].Value()
				for s := range g {
					logp[s] += g[s].logNorm - (v-g[s].mean)*(v-g[s].mean)/(2*g[s].variance)
				}
			}
			continue
		}
		// Discrete missing values contribute nothing; existence attributes
		// are never missing (absent = state 0) and always contribute.
		st := -1
		switch {
		case m.space.Attr(in).Kind == core.KindExistence:
			st = 0
			if present {
				st = 1
			}
		case present:
			st = int(cells[j].Code)
		}
		if st < 0 {
			continue
		}
		for s, ll := range cl.logDisc[in] {
			if st < len(ll) {
				logp[s] += ll[st]
			}
		}
	}
	// Softmax in log space. Evidence that rules out every class — with
	// PSEUDOCOUNT 0, one input's state seen only with one class and another's
	// only with another — leaves the prior to decide.
	maxLog := math.Inf(-1)
	for _, lp := range logp {
		if lp > maxLog {
			maxLog = lp
		}
	}
	if math.IsInf(maxLog, -1) {
		copy(logp, cl.logPrior)
		maxLog = slices.Max(logp)
	}
	var z float64
	for s, lp := range logp {
		probs[s] = math.Exp(lp - maxLog)
		z += probs[s]
	}
	for s := range probs {
		probs[s] /= z
	}
}

// histogram is the prediction probs make: every class a bucket, most probable
// first.
func (cl *classifier) histogram(probs []float64) core.Prediction {
	p := core.Prediction{Histogram: make([]core.Bucket, len(probs))}
	for s, pr := range probs {
		p.Histogram[s] = core.Bucket{Value: cl.values[s], Prob: pr, Support: cl.prior[s]}
	}
	p.SortHistogram()
	return p
}

// best is the class SortHistogram puts first — the most probable, ties to the
// lower value — or -1 when a probability is NaN, which orders with nothing.
func (cl *classifier) best(probs []float64) int {
	best := -1
	for s, pr := range probs {
		switch {
		case math.IsNaN(pr):
			return -1
		case best < 0 || pr > probs[best] || pr == probs[best] && rowset.Compare(cl.values[s], cl.values[best]) < 0:
			best = s
		}
	}
	return best
}

func stateName(a *core.Attribute, s int) string {
	if a.Kind == core.KindExistence {
		if s == 1 {
			return "present"
		}
		return "absent"
	}
	if s >= 0 && s < len(a.States) {
		return a.States[s]
	}
	return fmt.Sprintf("state%d", s)
}

// PredictTable implements core.TrainedModel; Naive Bayes does not rank
// nested-table rows.
func (m *Model) PredictTable(core.Case, string) (core.Prediction, error) {
	return core.Prediction{}, fmt.Errorf("nbayes: %s does not support nested TABLE prediction", ServiceName)
}

// Content implements core.TrainedModel: model root → one node per target →
// one NAIVE_BAYES node per input attribute carrying, per class, the
// conditional distribution (top states only, for discrete inputs) or the
// Gaussian parameters.
func (m *Model) Content() *core.ContentNode {
	root := &core.ContentNode{Type: core.NodeModel, Caption: ServiceName, Support: float64(m.caseCount)}
	for _, t := range m.targetOrder {
		cl, ok := m.classifiers[t]
		if !ok {
			continue
		}
		ta := m.space.Attr(t)
		tn := root.AddChild(&core.ContentNode{
			Type: core.NodeTree, Caption: ta.Name, Attribute: ta.Name, Support: cl.total,
		})
		// Prior node.
		prior := tn.AddChild(&core.ContentNode{
			Type: core.NodeDistribution, Caption: "(prior)", Attribute: ta.Name, Support: cl.total,
		})
		for s, cnt := range cl.prior {
			prior.Distribution = append(prior.Distribution, core.StateStat{
				Value: stateName(ta, s), Support: cnt, Prob: cnt / cl.total,
			})
		}
		for _, in := range cl.inputs {
			a := m.space.Attr(in)
			an := tn.AddChild(&core.ContentNode{
				Type: core.NodeNaiveBayes, Caption: a.Name, Attribute: a.Name, Support: cl.total,
			})
			if a.Kind == core.KindContinuous {
				for s := range cl.prior {
					mean, variance := cl.gauss[in][s].meanVar(m.prm.minVariance)
					an.Distribution = append(an.Distribution, core.StateStat{
						Value:    fmt.Sprintf("%s: N(%.4g, %.4g)", stateName(ta, s), mean, variance),
						Support:  cl.gauss[in][s].n,
						Prob:     0,
						Variance: variance,
					})
				}
				continue
			}
			for s := range cl.prior {
				table := cl.disc[in][s]
				var rowTotal float64
				for _, v := range table {
					rowTotal += v
				}
				if rowTotal <= 0 {
					continue
				}
				type sv struct {
					st  int
					cnt float64
				}
				tops := make([]sv, 0, len(table))
				for st, cnt := range table {
					tops = append(tops, sv{st, cnt})
				}
				sort.Slice(tops, func(i, j int) bool { return tops[i].cnt > tops[j].cnt })
				if len(tops) > 3 {
					tops = tops[:3]
				}
				for _, x := range tops {
					an.Distribution = append(an.Distribution, core.StateStat{
						Value:   fmt.Sprintf("%s | %s=%s", stateName(ta, s), a.Name, stateName(a, x.st)),
						Support: x.cnt,
						Prob:    x.cnt / rowTotal,
					})
				}
			}
		}
	}
	root.AssignIDs(1)
	return root
}

// Parameters implements core.ParameterDescriber.
func (*Algorithm) Parameters() []core.ParamDesc {
	return []core.ParamDesc{
		{Name: "PSEUDOCOUNT", Type: "DOUBLE", Default: "1",
			Description: "Additive (Laplace) smoothing constant"},
		{Name: "MINIMUM_VARIANCE", Type: "DOUBLE", Default: "1e-6",
			Description: "Variance floor for Gaussian likelihoods"},
	}
}
