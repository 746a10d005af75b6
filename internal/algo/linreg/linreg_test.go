package linreg

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
)

func space(attrs ...core.Attribute) *core.AttributeSpace {
	sp := core.NewAttributeSpace()
	for _, a := range attrs {
		sp.Add(a)
	}
	return sp
}

func cont(name string, target bool) core.Attribute {
	return core.Attribute{Name: name, Column: name, Kind: core.KindContinuous,
		IsInput: true, IsTarget: target}
}

// linearCaseset plants y = 3 + 2*x1 - 4*x2 + shift(color) + noise.
func linearCaseset(n int, noise float64) *core.Caseset {
	sp := space(
		cont("x1", false),
		cont("x2", false),
		core.Attribute{Name: "color", Column: "color", Kind: core.KindDiscrete,
			States: []string{"red", "blue"}, IsInput: true},
		cont("y", true),
	)
	cs := &core.Caseset{Space: sp}
	rng := rand.New(rand.NewSource(13))
	x1i, _ := sp.Lookup("x1")
	x2i, _ := sp.Lookup("x2")
	ci, _ := sp.Lookup("color")
	yi, _ := sp.Lookup("y")
	for i := 0; i < n; i++ {
		c := core.NewCase()
		x1 := rng.Float64() * 10
		x2 := rng.Float64() * 5
		color := int64(i % 2)
		shift := 0.0
		if color == 0 {
			shift = 7
		}
		c.Set(x1i, x1)
		c.Set(x2i, x2)
		c.Set(ci, color)
		c.Set(yi, 3+2*x1-4*x2+shift+rng.NormFloat64()*noise)
		cs.Append(c)
	}
	return cs
}

func TestRecoversLinearModel(t *testing.T) {
	cs := linearCaseset(500, 0.1)
	yi, _ := cs.Space.Lookup("y")
	tm, err := New().Train(context.Background(), cs, []int{yi}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := tm.(*Model)
	if r2 := m.R2(yi); r2 < 0.99 {
		t.Errorf("R² = %v, want near 1", r2)
	}
	// Predict a fresh point: x1=4, x2=1, red → 3 + 8 - 4 + 7 = 14.
	x1i, _ := cs.Space.Lookup("x1")
	x2i, _ := cs.Space.Lookup("x2")
	ci, _ := cs.Space.Lookup("color")
	c := core.NewCase()
	c.Set(x1i, 4.0)
	c.Set(x2i, 1.0)
	c.Set(ci, int64(0))
	p, err := m.Predict(c, yi)
	if err != nil {
		t.Fatal(err)
	}
	y := p.Estimate.(float64)
	if math.Abs(y-14) > 0.3 {
		t.Errorf("prediction = %v want ~14", y)
	}
	if p.Stdev > 0.5 {
		t.Errorf("rmse = %v", p.Stdev)
	}
}

func TestNoisyFitStillReasonable(t *testing.T) {
	cs := linearCaseset(500, 3)
	yi, _ := cs.Space.Lookup("y")
	tm, err := New().Train(context.Background(), cs, []int{yi}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := tm.(*Model)
	if r2 := m.R2(yi); r2 < 0.7 {
		t.Errorf("R² = %v under noise", r2)
	}
	c := core.NewCase()
	p, _ := m.Predict(c, yi)
	if p.Stdev < 2 || p.Stdev > 4.5 {
		t.Errorf("rmse = %v, want ≈ noise level 3", p.Stdev)
	}
}

func TestMissingInputsUseMeans(t *testing.T) {
	cs := linearCaseset(300, 0.1)
	yi, _ := cs.Space.Lookup("y")
	tm, _ := New().Train(context.Background(), cs, []int{yi}, nil, 0)
	// An empty case predicts roughly the mean of y.
	p, err := tm.Predict(core.NewCase(), yi)
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	for i := 0; i < cs.Len(); i++ {
		v, _ := cs.Case(i).Continuous(yi)
		mean += v
	}
	mean /= float64(cs.Len())
	got := p.Estimate.(float64)
	// Discrete reference level contributes; allow generous slack.
	if math.Abs(got-mean) > 6 {
		t.Errorf("empty-case prediction %v far from mean %v", got, mean)
	}
}

func TestContent(t *testing.T) {
	cs := linearCaseset(200, 0.1)
	yi, _ := cs.Space.Lookup("y")
	tm, _ := New().Train(context.Background(), cs, []int{yi}, nil, 0)
	root := tm.Content()
	eq := root.Find(func(n *core.ContentNode) bool { return n.Type == core.NodeTree })
	if eq == nil || !strings.Contains(eq.Caption, "R²") {
		t.Fatalf("equation node = %+v", eq)
	}
	if len(eq.Distribution) < 4 { // intercept + x1 + x2 + color
		t.Errorf("coefficients = %d", len(eq.Distribution))
	}
	if !strings.Contains(eq.Distribution[0].Value, "intercept") {
		t.Errorf("first stat = %v", eq.Distribution[0])
	}
}

func TestErrors(t *testing.T) {
	cs := linearCaseset(100, 0.1)
	yi, _ := cs.Space.Lookup("y")
	ci, _ := cs.Space.Lookup("color")
	if _, err := New().Train(context.Background(), cs, nil, nil, 0); err == nil {
		t.Error("no targets must fail")
	}
	if _, err := New().Train(context.Background(), cs, []int{ci}, nil, 0); err == nil {
		t.Error("discrete target must fail")
	}
	if _, err := New().Train(context.Background(), cs, []int{yi}, map[string]string{"RIDGE": "-1"}, 0); err == nil {
		t.Error("bad ridge must fail")
	}
	if _, err := New().Train(context.Background(), cs, []int{yi}, map[string]string{"HUH": "1"}, 0); err == nil {
		t.Error("unknown param must fail")
	}
	// Too few cases for the coefficient count.
	tiny := linearCaseset(3, 0.1)
	if _, err := New().Train(context.Background(), tiny, []int{yi}, nil, 0); err == nil {
		t.Error("underdetermined fit must fail")
	}
	tm, _ := New().Train(context.Background(), cs, []int{yi}, nil, 0)
	x1i, _ := cs.Space.Lookup("x1")
	if _, err := tm.Predict(core.NewCase(), x1i); err == nil {
		t.Error("non-target prediction must fail")
	}
	if _, err := tm.PredictTable(core.NewCase(), "x"); err == nil {
		t.Error("PredictTable must fail")
	}
}

func TestSolve(t *testing.T) {
	// 2x + y = 5; x - y = 1 → x=2, y=1.
	x, err := solve([][]float64{{2, 1}, {1, -1}}, []float64{5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Errorf("solve = %v", x)
	}
	// Singular.
	if _, err := solve([][]float64{{1, 1}, {2, 2}}, []float64{1, 2}); err == nil {
		t.Error("singular system must fail")
	}
}

func TestExistenceFeature(t *testing.T) {
	// y = 10 + 5*has(item).
	sp := space(cont("y", true))
	sp.Add(core.Attribute{Name: "B(item)", Column: "B", NestedKey: "item",
		Kind: core.KindExistence, IsInput: true})
	cs := &core.Caseset{Space: sp}
	yi, _ := sp.Lookup("y")
	bi, _ := sp.Lookup("B(item)")
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		c := core.NewCase()
		y := 10.0
		if i%2 == 0 {
			c.Set(bi, true)
			y += 5
		}
		c.Set(yi, y+rng.NormFloat64()*0.1)
		cs.Append(c)
	}
	tm, err := New().Train(context.Background(), cs, []int{yi}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := core.NewCase()
	c.Set(bi, true)
	p, _ := tm.Predict(c, yi)
	if y := p.Estimate.(float64); math.Abs(y-15) > 0.2 {
		t.Errorf("with item = %v want ~15", y)
	}
	p2, _ := tm.Predict(core.NewCase(), yi)
	if y := p2.Estimate.(float64); math.Abs(y-10) > 0.2 {
		t.Errorf("without item = %v want ~10", y)
	}
}
