package nbayes

import (
	"context"
	"math"
	"math/rand"
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

func discrete(name string, states []string, target bool) core.Attribute {
	return core.Attribute{Name: name, Column: name, Kind: core.KindDiscrete,
		States: states, IsInput: true, IsTarget: target}
}

func continuous(name string) core.Attribute {
	return core.Attribute{Name: name, Column: name, Kind: core.KindContinuous, IsInput: true}
}

// spamCaseset plants: class=spam iff word "offer" present (with noise word).
func spamCaseset(n int) *core.Caseset {
	sp := space(
		discrete("offer", []string{"no", "yes"}, false),
		discrete("noiseword", []string{"no", "yes"}, false),
		discrete("class", []string{"ham", "spam"}, true),
	)
	cs := &core.Caseset{Space: sp}
	rng := rand.New(rand.NewSource(5))
	oi, _ := sp.Lookup("offer")
	ni, _ := sp.Lookup("noiseword")
	ci, _ := sp.Lookup("class")
	for i := 0; i < n; i++ {
		c := core.NewCase()
		isSpam := i%2 == 0
		offer := int64(0)
		if isSpam && rng.Float64() < 0.95 || !isSpam && rng.Float64() < 0.05 {
			offer = 1
		}
		c.Set(oi, offer)
		c.Set(ni, int64(rng.Intn(2)))
		if isSpam {
			c.Set(ci, int64(1))
		} else {
			c.Set(ci, int64(0))
		}
		cs.Append(c)
	}
	return cs
}

func TestClassification(t *testing.T) {
	cs := spamCaseset(400)
	ci, _ := cs.Space.Lookup("class")
	tm, err := New().Train(context.Background(), cs, []int{ci}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	oi, _ := cs.Space.Lookup("offer")
	c := core.NewCase()
	c.Set(oi, int64(1))
	p, err := tm.Predict(c, ci)
	if err != nil {
		t.Fatal(err)
	}
	if p.Estimate != "spam" || p.Prob < 0.8 {
		t.Errorf("offer=yes → %v (%v), want spam", p.Estimate, p.Prob)
	}
	c2 := core.NewCase()
	c2.Set(oi, int64(0))
	p2, _ := tm.Predict(c2, ci)
	if p2.Estimate != "ham" {
		t.Errorf("offer=no → %v, want ham", p2.Estimate)
	}
}

func TestGaussianLikelihood(t *testing.T) {
	// Continuous input: height ~ N(160, 5) for class a, N(180, 5) for b.
	sp := space(
		continuous("height"),
		discrete("class", []string{"a", "b"}, true),
	)
	cs := &core.Caseset{Space: sp}
	rng := rand.New(rand.NewSource(9))
	hi, _ := sp.Lookup("height")
	ci, _ := sp.Lookup("class")
	for i := 0; i < 500; i++ {
		c := core.NewCase()
		if i%2 == 0 {
			c.Set(hi, 160+rng.NormFloat64()*5)
			c.Set(ci, int64(0))
		} else {
			c.Set(hi, 180+rng.NormFloat64()*5)
			c.Set(ci, int64(1))
		}
		cs.Append(c)
	}
	tm, err := New().Train(context.Background(), cs, []int{ci}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		h    float64
		want string
	}{{158, "a"}, {183, "b"}} {
		c := core.NewCase()
		c.Set(hi, tc.h)
		p, _ := tm.Predict(c, ci)
		if p.Estimate != tc.want {
			t.Errorf("height %v → %v want %v", tc.h, p.Estimate, tc.want)
		}
	}
}

func TestPosteriorSumsToOne(t *testing.T) {
	cs := spamCaseset(100)
	ci, _ := cs.Space.Lookup("class")
	tm, _ := New().Train(context.Background(), cs, []int{ci}, nil, 0)
	p, err := tm.Predict(core.NewCase(), ci)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, b := range p.Histogram {
		sum += b.Prob
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("posterior sums to %v", sum)
	}
}

func TestMissingInputsFallBackToPrior(t *testing.T) {
	// Unbalanced priors: 80% class a.
	sp := space(
		discrete("x", []string{"u", "v"}, false),
		discrete("class", []string{"a", "b"}, true),
	)
	cs := &core.Caseset{Space: sp}
	xi, _ := sp.Lookup("x")
	ci, _ := sp.Lookup("class")
	for i := 0; i < 100; i++ {
		c := core.NewCase()
		c.Set(xi, int64(i%2))
		if i%5 == 0 {
			c.Set(ci, int64(1))
		} else {
			c.Set(ci, int64(0))
		}
		cs.Append(c)
	}
	tm, _ := New().Train(context.Background(), cs, []int{ci}, nil, 0)
	p, _ := tm.Predict(core.NewCase(), ci)
	if p.Estimate != "a" {
		t.Errorf("empty case must follow prior: %v", p.Estimate)
	}
	if p.Prob < 0.7 || p.Prob > 0.9 {
		t.Errorf("prior-driven prob = %v, want ~0.8", p.Prob)
	}
}

func TestContinuousTargetRejected(t *testing.T) {
	sp := space(continuous("y"))
	a := sp.Attr(0)
	a.IsTarget = true
	cs := &core.Caseset{Space: sp}
	cs.Append(core.NewCase())
	if _, err := New().Train(context.Background(), cs, []int{0}, nil, 0); err == nil {
		t.Error("continuous target must be rejected")
	}
}

func TestBadParams(t *testing.T) {
	cs := spamCaseset(10)
	ci, _ := cs.Space.Lookup("class")
	for _, p := range []map[string]string{
		{"PSEUDOCOUNT": "-1"},
		{"MINIMUM_VARIANCE": "0"},
		{"WHAT": "1"},
	} {
		if _, err := New().Train(context.Background(), cs, []int{ci}, p, 0); err == nil {
			t.Errorf("params %v must fail", p)
		}
	}
	if _, err := New().Train(context.Background(), cs, nil, nil, 0); err == nil {
		t.Error("no targets must fail")
	}
}

func TestPredictNonTarget(t *testing.T) {
	cs := spamCaseset(50)
	ci, _ := cs.Space.Lookup("class")
	tm, _ := New().Train(context.Background(), cs, []int{ci}, nil, 0)
	oi, _ := cs.Space.Lookup("offer")
	if _, err := tm.Predict(core.NewCase(), oi); err == nil {
		t.Error("non-target prediction must fail")
	}
	if _, err := tm.PredictTable(core.NewCase(), "x"); err == nil {
		t.Error("PredictTable must fail for nbayes")
	}
}

func TestContent(t *testing.T) {
	cs := spamCaseset(100)
	ci, _ := cs.Space.Lookup("class")
	tm, _ := New().Train(context.Background(), cs, []int{ci}, nil, 0)
	root := tm.Content()
	if root.Type != core.NodeModel {
		t.Fatal("bad root")
	}
	nb := root.Find(func(n *core.ContentNode) bool { return n.Type == core.NodeNaiveBayes })
	if nb == nil || len(nb.Distribution) == 0 {
		t.Fatalf("no NAIVE_BAYES node with distribution: %+v", nb)
	}
	prior := root.Find(func(n *core.ContentNode) bool { return n.Caption == "(prior)" })
	if prior == nil {
		t.Fatal("prior node missing")
	}
	var sum float64
	for _, s := range prior.Distribution {
		sum += s.Prob
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("prior sums to %v", sum)
	}
}

func TestExistenceInputs(t *testing.T) {
	// Existence attribute as input: buyers of "beer" are class "b".
	sp := space(discrete("class", []string{"a", "b"}, true))
	sp.Add(core.Attribute{Name: "P(beer)", Column: "P", NestedKey: "beer",
		Kind: core.KindExistence, IsInput: true})
	cs := &core.Caseset{Space: sp}
	ci, _ := sp.Lookup("class")
	bi, _ := sp.Lookup("P(beer)")
	for i := 0; i < 100; i++ {
		c := core.NewCase()
		if i%2 == 0 {
			c.Set(bi, true)
			c.Set(ci, int64(1))
		} else {
			c.Set(ci, int64(0))
		}
		cs.Append(c)
	}
	tm, err := New().Train(context.Background(), cs, []int{ci}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := core.NewCase()
	c.Set(bi, true)
	p, _ := tm.Predict(c, ci)
	if p.Estimate != "b" {
		t.Errorf("beer buyer → %v want b", p.Estimate)
	}
	p2, _ := tm.Predict(core.NewCase(), ci)
	if p2.Estimate != "a" {
		t.Errorf("non-buyer → %v want a", p2.Estimate)
	}
}

// TestConstantContinuousColumn trains on an attribute whose value never
// varies: σ²=0 before the unconditional clamp in meanVar, which made the
// Gaussian log-likelihood NaN/-Inf and poisoned the posterior.
func TestConstantContinuousColumn(t *testing.T) {
	sp := space(
		continuous("flat"),
		discrete("class", []string{"a", "b"}, true),
	)
	cs := &core.Caseset{Space: sp}
	fi, _ := sp.Lookup("flat")
	ci, _ := sp.Lookup("class")
	for i := 0; i < 20; i++ {
		c := core.NewCase()
		c.Set(fi, 42.0) // constant for every case and both classes
		c.Set(ci, int64(i%2))
		cs.Append(c)
	}
	m, err := (&Algorithm{}).Train(context.Background(), cs, []int{ci}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	q := core.NewCase()
	q.Set(fi, 42.0)
	p, err := m.Predict(q, ci)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, b := range p.Histogram {
		if math.IsNaN(b.Prob) || math.IsInf(b.Prob, 0) {
			t.Fatalf("constant column produced non-finite probability %v", b.Prob)
		}
		total += b.Prob
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("posterior does not normalize: sum = %v", total)
	}
}

// TestMeanVarClampsZeroFloor exercises meanVar directly with minVariance
// forced to 0, the raw bug condition parseParams normally guards against.
func TestMeanVarClampsZeroFloor(t *testing.T) {
	g := gaussStat{n: 3, sum: 30, sumsq: 300} // three observations of 10 → variance 0
	mean, v := g.meanVar(0)
	if mean != 10 {
		t.Fatalf("mean = %v", mean)
	}
	if v <= 0 {
		t.Fatalf("variance not clamped positive: %v", v)
	}
	ll := -0.5*math.Log(2*math.Pi*v) - (10-mean)*(10-mean)/(2*v)
	if math.IsNaN(ll) || math.IsInf(ll, 0) {
		t.Fatalf("log-likelihood still non-finite: %v", ll)
	}
	if _, v0 := (gaussStat{}).meanVar(0); v0 <= 0 {
		t.Fatalf("empty-stat variance not clamped: %v", v0)
	}
}

// TestZeroPseudocountHasNoNaN: with PSEUDOCOUNT 0, a state no class ever saw
// and an input one class never saw have no likelihood to estimate. They add
// nothing, like a missing value; their logarithms used to turn every
// posterior into NaN. Evidence that rules out every class — one input's state
// seen only with a, another's only with b — leaves the prior.
func TestZeroPseudocountHasNoNaN(t *testing.T) {
	sp := space(
		discrete("color", []string{"red", "blue", "green"}, false),
		discrete("size", []string{"s", "m"}, false),
		discrete("tone", []string{"light", "dark"}, false),
		discrete("class", []string{"a", "b"}, true),
	)
	cs := &core.Caseset{Space: sp}
	color, size, tone, class := 0, 1, 2, 3
	for i := 0; i < 40; i++ {
		c := core.NewCase()
		c.Set(color, int64(i%2)) // red with a, blue with b
		if i%2 == 0 {
			c.Set(size, int64(i/2%2)) // only class a ever has a size
		}
		c.Set(tone, int64(1-i%2)) // dark with a, light with b
		c.Set(class, int64(i%2))
		cs.Append(c)
	}
	green := core.NewCase() // green occurs only without a class
	green.Set(color, int64(2))
	cs.Append(green)
	tm, err := New().Train(context.Background(), cs, []int{class}, map[string]string{"PSEUDOCOUNT": "0"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Probes as {color, size, tone}, -1 for a missing value; the last two rule
	// out both classes.
	probes := [][3]int64{{2, -1, -1}, {2, 0, -1}, {0, 1, -1}, {1, 0, -1}, {0, -1, 0}, {1, 0, 1}}
	var out core.PredictionBatch
	out.Reset(len(probes), true)
	for i, cells := range probes {
		c := core.NewCase()
		for attr, v := range cells {
			if v >= 0 {
				c.Set(attr, v)
			}
		}
		p, err := tm.Predict(c, class)
		if err != nil {
			t.Fatal(err)
		}
		if err := core.PredictInto(tm, c, class, "", &out, i); err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, b := range p.Histogram {
			if math.IsNaN(b.Prob) {
				t.Fatalf("probe %d: NaN in posterior %+v", i, p.Histogram)
			}
			sum += b.Prob
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("probe %d: posterior sums to %v", i, sum)
		}
		if out.Estimate[i] != p.Estimate || out.Prob[i] != p.Prob || len(out.Histogram[i]) != len(p.Histogram) {
			t.Errorf("probe %d: batch %v (%v), case %v (%v)", i, out.Estimate[i], out.Prob[i], p.Estimate, p.Prob)
		}
		// The green case and the ruled-out ones are decided by the prior
		// alone: two classes of 20 cases.
		if cells[0] == 2 && cells[1] < 0 || i >= 4 {
			if p.Prob != 0.5 || p.Estimate != "a" {
				t.Errorf("probe %d = %v (%v), want the prior's tie broken to a", i, p.Estimate, p.Prob)
			}
		}
	}
}

// TestPredictBatchAllocatesColumnsOnly: filling a batch of 1024 cases without
// histograms allocates the batch's two columns and nothing per case.
func TestPredictBatchAllocatesColumnsOnly(t *testing.T) {
	cs := spamCaseset(1024)
	ci, _ := cs.Space.Lookup("class")
	tm, err := New().Train(context.Background(), cs, []int{ci}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out core.PredictionBatch
	n := testing.AllocsPerRun(20, func() {
		out.Reset(cs.Len(), false)
		for i := range cs.Len() {
			_ = core.PredictInto(tm, cs.Case(i), ci, "", &out, i)
		}
	})
	if n > 2 {
		t.Errorf("%v allocations per batch of %d cases, want the 2 of its columns", n, cs.Len())
	}
	if len(out.Histogram) != 0 || out.Estimate[0] == nil {
		t.Errorf("batch = %d histograms, estimate %v", len(out.Histogram), out.Estimate[0])
	}
}
