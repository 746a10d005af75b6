// Package linreg implements the Linear_Regression mining service: ordinary
// least squares over a design matrix built from the caseset — continuous
// inputs enter directly (z-scored), discrete inputs one-hot encode, and
// existence attributes enter as 0/1 — solved by Gaussian elimination on the
// normal equations with ridge damping for stability. It demonstrates the
// paper's extensibility claim: a fifth service plugged into the provider
// with zero changes outside its own package and one Register call.
package linreg

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
)

// ServiceName is the USING-clause name of this algorithm.
const ServiceName = "Linear_Regression"

// Algorithm implements core.Algorithm.
type Algorithm struct{}

// New returns the Linear_Regression service.
func New() *Algorithm { return &Algorithm{} }

// Name implements core.Algorithm.
func (*Algorithm) Name() string { return ServiceName }

// Description implements core.Algorithm.
func (*Algorithm) Description() string {
	return "Ordinary least squares regression with one-hot discrete inputs and ridge damping"
}

// SupportsPredictTable implements core.Algorithm.
func (*Algorithm) SupportsPredictTable() bool { return false }

// Parameters implements core.ParameterDescriber.
func (*Algorithm) Parameters() []core.ParamDesc {
	return []core.ParamDesc{
		{Name: "RIDGE", Type: "DOUBLE", Default: "1e-6",
			Description: "L2 damping added to the normal equations' diagonal"},
	}
}

type params struct {
	ridge float64
}

func parseParams(p map[string]string) (params, error) {
	out := params{ridge: 1e-6}
	for k, v := range p {
		switch strings.ToUpper(k) {
		case "RIDGE":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f < 0 {
				return out, fmt.Errorf("linreg: bad RIDGE %q", v)
			}
			out.ridge = f
		default:
			return out, fmt.Errorf("linreg: unknown parameter %q", k)
		}
	}
	return out, nil
}

// feature is one design-matrix column.
type feature struct {
	attr  int
	state int // -1 for continuous/existence; state index for one-hot
	name  string
	// mean/std normalize continuous features.
	mean, std float64
}

// regression is the fitted model for one target.
type regression struct {
	features  []feature
	coef      []float64 // len(features)+1; coef[0] is the intercept
	rmse      float64   // training residual standard error
	n         float64   // weighted case count
	r2        float64
	targetVar float64
}

// Model holds one regression per continuous target.
type Model struct {
	space       *core.AttributeSpace
	regs        map[int]*regression
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
		return nil, fmt.Errorf("linreg: model has no PREDICT columns")
	}
	m := &Model{space: cs.Space, regs: make(map[int]*regression),
		targetOrder: targets, caseCount: cs.Len()}
	for _, t := range targets {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ta := cs.Space.Attr(t)
		if ta.Kind != core.KindContinuous {
			return nil, fmt.Errorf("linreg: target %q must be CONTINUOUS", ta.Name)
		}
		reg, err := fit(cs, t, prm)
		if err != nil {
			return nil, err
		}
		m.regs[t] = reg
	}
	return m, nil
}

// buildFeatures lays out the design-matrix columns for one target.
func buildFeatures(cs *core.Caseset, target int) []feature {
	var out []feature
	sp := cs.Space
	for i := range sp.Attrs {
		a := sp.Attr(i)
		if i == target || !a.IsInput {
			continue
		}
		ta := sp.Attr(target)
		if ta.NestedKey != "" && a.Column == ta.Column && a.NestedKey == ta.NestedKey {
			continue
		}
		switch a.Kind {
		case core.KindContinuous:
			out = append(out, feature{attr: i, state: -1, name: a.Name, std: 1})
		case core.KindExistence:
			out = append(out, feature{attr: i, state: -1, name: a.Name, std: 1})
		default:
			// One-hot with the last state dropped (reference level) to
			// avoid a singular design when every state is observed.
			for st := 0; st < len(a.States)-1; st++ {
				out = append(out, feature{attr: i, state: st,
					name: fmt.Sprintf("%s='%s'", a.Name, a.States[st]), std: 1})
			}
		}
	}
	return out
}

func featureValue(c *core.Case, f *feature, sp *core.AttributeSpace) float64 {
	a := sp.Attr(f.attr)
	switch a.Kind {
	case core.KindContinuous:
		if v, ok := c.Continuous(f.attr); ok {
			return (v - f.mean) / f.std
		}
		return 0 // missing = mean after normalization
	case core.KindExistence:
		if c.Has(f.attr) {
			return 1
		}
		return 0
	default:
		if c.Discrete(f.attr) == f.state {
			return 1
		}
		return 0
	}
}

func fit(cs *core.Caseset, target int, prm params) (*regression, error) {
	feats := buildFeatures(cs, target)
	sp := cs.Space

	// Normalization stats for continuous features.
	for fi := range feats {
		f := &feats[fi]
		if sp.Attr(f.attr).Kind != core.KindContinuous {
			continue
		}
		var n, sum, sumsq float64
		for ci := 0; ci < cs.Len(); ci++ {
			if v, ok := cs.Case(ci).Continuous(f.attr); ok {
				n++
				sum += v
				sumsq += v * v
			}
		}
		if n > 0 {
			f.mean = sum / n
			v := sumsq/n - f.mean*f.mean
			if v > 1e-12 {
				f.std = math.Sqrt(v)
			}
		}
	}

	k := len(feats) + 1 // +1 intercept
	// Normal equations: (XᵀWX + λI) β = XᵀWy.
	xtx := make([][]float64, k)
	for i := range xtx {
		xtx[i] = make([]float64, k)
	}
	xty := make([]float64, k)
	row := make([]float64, k)
	var n, ySum, ySumsq float64
	for ci := 0; ci < cs.Len(); ci++ {
		c := cs.Case(ci)
		y, ok := c.Continuous(target)
		if !ok {
			continue
		}
		w := c.Weight
		row[0] = 1
		for fi := range feats {
			row[fi+1] = featureValue(&c, &feats[fi], sp)
		}
		for i := 0; i < k; i++ {
			for j := i; j < k; j++ {
				xtx[i][j] += w * row[i] * row[j]
			}
			xty[i] += w * row[i] * y
		}
		n += w
		ySum += y * w
		ySumsq += y * y * w
	}
	if n < float64(k) {
		return nil, fmt.Errorf("linreg: %d weighted cases cannot identify %d coefficients", int(n), k)
	}
	for i := 0; i < k; i++ {
		for j := 0; j < i; j++ {
			xtx[i][j] = xtx[j][i]
		}
		xtx[i][i] += prm.ridge * n
	}
	coef, err := solve(xtx, xty)
	if err != nil {
		return nil, err
	}

	reg := &regression{features: feats, coef: coef, n: n}
	yMean := ySum / n
	reg.targetVar = ySumsq/n - yMean*yMean
	// Residuals.
	var ss float64
	for ci := 0; ci < cs.Len(); ci++ {
		c := cs.Case(ci)
		y, ok := c.Continuous(target)
		if !ok {
			continue
		}
		d := y - reg.predictOne(&c, sp)
		ss += c.Weight * d * d
	}
	reg.rmse = math.Sqrt(ss / n)
	if reg.targetVar > 0 {
		reg.r2 = 1 - (ss/n)/reg.targetVar
	}
	return reg, nil
}

// solve performs Gaussian elimination with partial pivoting on a copy of A.
func solve(a [][]float64, b []float64) ([]float64, error) {
	k := len(b)
	m := make([][]float64, k)
	for i := range m {
		m[i] = append(append([]float64(nil), a[i]...), b[i])
	}
	for col := 0; col < k; col++ {
		pivot := col
		for r := col + 1; r < k; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			return nil, fmt.Errorf("linreg: singular design matrix (column %d)", col)
		}
		m[col], m[pivot] = m[pivot], m[col]
		for r := col + 1; r < k; r++ {
			f := m[r][col] / m[col][col]
			for c := col; c <= k; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	x := make([]float64, k)
	for i := k - 1; i >= 0; i-- {
		x[i] = m[i][k]
		for j := i + 1; j < k; j++ {
			x[i] -= m[i][j] * x[j]
		}
		x[i] /= m[i][i]
	}
	return x, nil
}

func (r *regression) predictOne(c *core.Case, sp *core.AttributeSpace) float64 {
	y := r.coef[0]
	for fi := range r.features {
		y += r.coef[fi+1] * featureValue(c, &r.features[fi], sp)
	}
	return y
}

// AlgorithmName implements core.TrainedModel.
func (m *Model) AlgorithmName() string { return ServiceName }

// R2 returns the training R² for a target (testing/benchmarks).
func (m *Model) R2(target int) float64 {
	if r, ok := m.regs[target]; ok {
		return r.r2
	}
	return 0
}

// Predict implements core.TrainedModel.
func (m *Model) Predict(c core.Case, target int) (core.Prediction, error) {
	r, ok := m.regs[target]
	if !ok {
		return core.Prediction{}, fmt.Errorf("linreg: attribute %q is not a prediction target",
			m.space.Attr(target).Name)
	}
	y := r.predictOne(&c, m.space)
	return core.Prediction{
		Estimate: y, Prob: 1, Support: r.n, Stdev: r.rmse,
		Histogram: []core.Bucket{{Value: y, Prob: 1, Support: r.n, Variance: r.rmse * r.rmse}},
	}, nil
}

// PredictTable implements core.TrainedModel.
func (m *Model) PredictTable(core.Case, string) (core.Prediction, error) {
	return core.Prediction{}, fmt.Errorf("linreg: %s does not support nested TABLE prediction", ServiceName)
}

// Content implements core.TrainedModel: one node per target carrying the
// fitted equation; the distribution lists coefficients by |magnitude|.
func (m *Model) Content() *core.ContentNode {
	root := &core.ContentNode{Type: core.NodeModel, Caption: ServiceName, Support: float64(m.caseCount)}
	for _, t := range m.targetOrder {
		r, ok := m.regs[t]
		if !ok {
			continue
		}
		ta := m.space.Attr(t)
		tn := root.AddChild(&core.ContentNode{
			Type:      core.NodeTree,
			Caption:   fmt.Sprintf("%s = f(inputs), R²=%.3f, RMSE=%.4g", ta.Name, r.r2, r.rmse),
			Attribute: ta.Name,
			Support:   r.n,
			Score:     r.r2,
		})
		stats := []core.StateStat{{Value: fmt.Sprintf("(intercept) = %.6g", r.coef[0]), Prob: 1}}
		type cf struct {
			name string
			v    float64
		}
		cfs := make([]cf, len(r.features))
		for i, f := range r.features {
			cfs[i] = cf{f.name, r.coef[i+1]}
		}
		sort.Slice(cfs, func(i, j int) bool { return math.Abs(cfs[i].v) > math.Abs(cfs[j].v) })
		for _, c := range cfs {
			stats = append(stats, core.StateStat{
				Value: fmt.Sprintf("%s = %.6g", c.name, c.v),
				Prob:  math.Abs(c.v),
			})
		}
		tn.Distribution = stats
	}
	root.AssignIDs(1)
	return root
}
