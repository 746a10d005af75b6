package dtree

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rowset"
)

// buildCaseset constructs a caseset over the given attributes with cases
// supplied as sparse maps.
func buildCaseset(attrs []core.Attribute, rows []map[string]rowset.Value) *core.Caseset {
	sp := core.NewAttributeSpace()
	for _, a := range attrs {
		sp.Add(a)
	}
	cs := &core.Caseset{Space: sp}
	for _, r := range rows {
		c := core.NewCase()
		for name, v := range r {
			i, ok := sp.Lookup(name)
			if !ok {
				panic("unknown attr " + name)
			}
			c.Set(i, v)
		}
		cs.Append(c)
	}
	return cs
}

func discreteAttr(name string, states []string, target bool) core.Attribute {
	return core.Attribute{Name: name, Column: name, Kind: core.KindDiscrete,
		States: states, IsInput: true, IsTarget: target}
}

func contAttr(name string, target bool) core.Attribute {
	return core.Attribute{Name: name, Column: name, Kind: core.KindContinuous,
		IsInput: true, IsTarget: target}
}

// planted XOR-free dataset: class = "hi" iff color==red.
func colorCaseset(n int) *core.Caseset {
	attrs := []core.Attribute{
		discreteAttr("color", []string{"red", "blue"}, false),
		contAttr("noise", false),
		discreteAttr("class", []string{"hi", "lo"}, true),
	}
	rng := rand.New(rand.NewSource(1))
	var rows []map[string]rowset.Value
	for i := 0; i < n; i++ {
		color := int64(i % 2)
		class := color // 0=red→hi(0), 1=blue→lo(1)
		rows = append(rows, map[string]rowset.Value{
			"color": color,
			"noise": rng.Float64(),
			"class": class,
		})
	}
	return buildCaseset(attrs, rows)
}

func train(t *testing.T, cs *core.Caseset, targets []int, params map[string]string) *Model {
	t.Helper()
	tm, err := New().Train(context.Background(), cs, targets, params, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tm.(*Model)
}

func TestClassificationLearnsRule(t *testing.T) {
	cs := colorCaseset(200)
	target, _ := cs.Space.Lookup("class")
	m := train(t, cs, []int{target}, nil)

	colorIdx, _ := cs.Space.Lookup("color")
	for color := int64(0); color < 2; color++ {
		c := core.NewCase()
		c.Set(colorIdx, color)
		p, err := m.Predict(c, target)
		if err != nil {
			t.Fatal(err)
		}
		want := cs.Space.Attr(target).States[color]
		if p.Estimate != want {
			t.Errorf("color=%d predicted %v want %s (prob %v)", color, p.Estimate, want, p.Prob)
		}
		if p.Prob < 0.9 {
			t.Errorf("confidence too low: %v", p.Prob)
		}
	}
}

func TestHistogramSumsToOne(t *testing.T) {
	cs := colorCaseset(100)
	target, _ := cs.Space.Lookup("class")
	m := train(t, cs, []int{target}, nil)
	p, err := m.Predict(core.NewCase(), target)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, b := range p.Histogram {
		sum += b.Prob
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("histogram probs sum to %v", sum)
	}
}

func TestContinuousSplit(t *testing.T) {
	// class depends on x <= 50.
	attrs := []core.Attribute{
		contAttr("x", false),
		discreteAttr("class", []string{"low", "high"}, true),
	}
	var rows []map[string]rowset.Value
	for i := 0; i < 200; i++ {
		x := float64(i % 100)
		cls := int64(0)
		if x > 50 {
			cls = 1
		}
		rows = append(rows, map[string]rowset.Value{"x": x, "class": cls})
	}
	cs := buildCaseset(attrs, rows)
	target, _ := cs.Space.Lookup("class")
	m := train(t, cs, []int{target}, nil)

	xIdx, _ := cs.Space.Lookup("x")
	for _, tc := range []struct {
		x    float64
		want string
	}{{10, "low"}, {90, "high"}} {
		c := core.NewCase()
		c.Set(xIdx, tc.x)
		p, _ := m.Predict(c, target)
		if p.Estimate != tc.want {
			t.Errorf("x=%v → %v want %s", tc.x, p.Estimate, tc.want)
		}
	}
}

func TestRegression(t *testing.T) {
	// y = 10 for red, 100 for blue, plus small noise.
	attrs := []core.Attribute{
		discreteAttr("color", []string{"red", "blue"}, false),
		contAttr("y", true),
	}
	rng := rand.New(rand.NewSource(3))
	var rows []map[string]rowset.Value
	for i := 0; i < 300; i++ {
		color := int64(i % 2)
		base := 10.0
		if color == 1 {
			base = 100
		}
		rows = append(rows, map[string]rowset.Value{
			"color": color,
			"y":     base + rng.NormFloat64(),
		})
	}
	cs := buildCaseset(attrs, rows)
	target, _ := cs.Space.Lookup("y")
	m := train(t, cs, []int{target}, nil)

	colorIdx, _ := cs.Space.Lookup("color")
	c := core.NewCase()
	c.Set(colorIdx, int64(1))
	p, err := m.Predict(c, target)
	if err != nil {
		t.Fatal(err)
	}
	est := p.Estimate.(float64)
	if est < 95 || est > 105 {
		t.Errorf("blue estimate = %v want ~100", est)
	}
	if p.Stdev > 5 {
		t.Errorf("stdev = %v want small", p.Stdev)
	}
	c2 := core.NewCase()
	c2.Set(colorIdx, int64(0))
	p2, _ := m.Predict(c2, target)
	if e := p2.Estimate.(float64); e < 5 || e > 15 {
		t.Errorf("red estimate = %v want ~10", e)
	}
}

func TestMissingValueRouting(t *testing.T) {
	cs := colorCaseset(100)
	target, _ := cs.Space.Lookup("class")
	m := train(t, cs, []int{target}, nil)
	// A case with everything missing routes to the heaviest branch and
	// still yields a prediction.
	p, err := m.Predict(core.NewCase(), target)
	if err != nil {
		t.Fatal(err)
	}
	if p.Estimate == nil || len(p.Histogram) != 2 {
		t.Errorf("missing-input prediction = %+v", p)
	}
}

func TestPredictNonTargetFails(t *testing.T) {
	cs := colorCaseset(50)
	target, _ := cs.Space.Lookup("class")
	m := train(t, cs, []int{target}, nil)
	colorIdx, _ := cs.Space.Lookup("color")
	if _, err := m.Predict(core.NewCase(), colorIdx); err == nil {
		t.Error("predicting a non-target must fail")
	}
}

func TestComplexityPenaltyPrunes(t *testing.T) {
	cs := colorCaseset(100)
	target, _ := cs.Space.Lookup("class")
	deep := train(t, cs, []int{target}, nil)
	stump := train(t, cs, []int{target}, map[string]string{"COMPLEXITY_PENALTY": "10"})
	if deep.LeafCount(target) < 2 {
		t.Errorf("unpenalized tree has %d leaves", deep.LeafCount(target))
	}
	if stump.LeafCount(target) != 1 {
		t.Errorf("high-penalty tree has %d leaves, want stump", stump.LeafCount(target))
	}
}

func TestMaxDepthParam(t *testing.T) {
	cs := colorCaseset(100)
	target, _ := cs.Space.Lookup("class")
	m := train(t, cs, []int{target}, map[string]string{"MAXIMUM_DEPTH": "1"})
	if d := m.Depth(target); d > 1 {
		t.Errorf("depth = %d with MAXIMUM_DEPTH 1", d)
	}
}

func TestBadParams(t *testing.T) {
	cs := colorCaseset(20)
	target, _ := cs.Space.Lookup("class")
	bad := []map[string]string{
		{"MINIMUM_SUPPORT": "0"},
		{"MINIMUM_SUPPORT": "abc"},
		{"MAXIMUM_DEPTH": "-1"},
		{"COMPLEXITY_PENALTY": "-0.5"},
		{"SCORE_METHOD": "CHI2"},
		{"NO_SUCH_PARAM": "1"},
	}
	for _, p := range bad {
		if _, err := New().Train(context.Background(), cs, []int{target}, p, 0); err == nil {
			t.Errorf("params %v must fail", p)
		}
	}
	if _, err := New().Train(context.Background(), cs, nil, nil, 0); err == nil {
		t.Error("no targets must fail")
	}
}

func TestGiniScoreMethod(t *testing.T) {
	cs := colorCaseset(100)
	target, _ := cs.Space.Lookup("class")
	m := train(t, cs, []int{target}, map[string]string{"SCORE_METHOD": "GINI"})
	colorIdx, _ := cs.Space.Lookup("color")
	c := core.NewCase()
	c.Set(colorIdx, int64(0))
	p, _ := m.Predict(c, target)
	if p.Estimate != "hi" {
		t.Errorf("gini tree predicts %v", p.Estimate)
	}
}

// basketCaseset plants an association: beer buyers also buy chips.
func basketCaseset(n int) *core.Caseset {
	sp := core.NewAttributeSpace()
	items := []string{"beer", "chips", "milk", "bread"}
	for _, it := range items {
		sp.Add(core.Attribute{
			Name: "Products(" + it + ")", Column: "Products", NestedKey: it,
			Kind: core.KindExistence, IsInput: true, IsTarget: true,
		})
	}
	cs := &core.Caseset{Space: sp}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < n; i++ {
		c := core.NewCase()
		if i%2 == 0 { // beer ⇒ chips
			bi, _ := sp.Lookup("Products(beer)")
			ci, _ := sp.Lookup("Products(chips)")
			c.Set(bi, true)
			c.Set(ci, true)
		} else {
			mi, _ := sp.Lookup("Products(milk)")
			c.Set(mi, true)
			if rng.Float64() < 0.5 {
				bi, _ := sp.Lookup("Products(bread)")
				c.Set(bi, true)
			}
		}
		cs.Append(c)
	}
	return cs
}

func TestPredictTable(t *testing.T) {
	cs := basketCaseset(200)
	m := train(t, cs, cs.Space.Targets(), nil)
	bi, _ := cs.Space.Lookup("Products(beer)")
	c := core.NewCase()
	c.Set(bi, true)
	p, err := m.PredictTable(c, "Products")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Histogram) == 0 {
		t.Fatal("empty table prediction")
	}
	if p.Histogram[0].Value != "chips" {
		t.Errorf("top recommendation = %v want chips (%+v)", p.Histogram[0].Value, p.Histogram)
	}
	if p.Histogram[0].Prob < 0.8 {
		t.Errorf("chips prob = %v", p.Histogram[0].Prob)
	}
	// Items already in the basket are excluded.
	for _, b := range p.Histogram {
		if b.Value == "beer" {
			t.Error("input item must be excluded from the recommendation")
		}
	}
	if _, err := m.PredictTable(c, "NoSuchTable"); err == nil {
		t.Error("unknown table column must fail")
	}
}

func TestContentGraph(t *testing.T) {
	cs := colorCaseset(100)
	target, _ := cs.Space.Lookup("class")
	m := train(t, cs, []int{target}, nil)
	root := m.Content()
	if root.Type != core.NodeModel || len(root.Children) != 1 {
		t.Fatalf("root = %+v", root)
	}
	tree := root.Children[0]
	if tree.Type != core.NodeTree || tree.Attribute != "class" {
		t.Errorf("tree node = %+v", tree)
	}
	// There must be a leaf with a distribution, and at least one interior
	// node conditioned on color.
	leaf := root.Find(func(n *core.ContentNode) bool { return n.Type == core.NodeDistribution })
	if leaf == nil || len(leaf.Distribution) == 0 {
		t.Fatalf("no distribution leaf: %+v", leaf)
	}
	split := root.Find(func(n *core.ContentNode) bool {
		return n.Type == core.NodeDistribution && strings.Contains(n.Condition, "color")
	})
	if split == nil {
		t.Error("no node conditioned on color")
	}
	// IDs are unique.
	seen := map[int]bool{}
	root.Walk(func(n, _ *core.ContentNode) {
		if seen[n.ID] {
			t.Errorf("duplicate node id %d", n.ID)
		}
		seen[n.ID] = true
	})
}

func TestWeightedCases(t *testing.T) {
	// Two conflicting cases; the heavy one dominates the leaf distribution.
	attrs := []core.Attribute{
		discreteAttr("class", []string{"a", "b"}, true),
	}
	cs := buildCaseset(attrs, []map[string]rowset.Value{
		{"class": int64(0)},
		{"class": int64(1)},
	})
	cs.Weights[0] = 9
	cs.Weights[1] = 1
	target, _ := cs.Space.Lookup("class")
	m := train(t, cs, []int{target}, nil)
	p, _ := m.Predict(core.NewCase(), target)
	if p.Estimate != "a" {
		t.Errorf("weighted majority = %v", p.Estimate)
	}
	if p.Best().Support != 9 {
		t.Errorf("support = %v want 9", p.Best().Support)
	}
}

func TestRegressionWithContinuousInput(t *testing.T) {
	// y = 5 for x <= 50, 50 for x > 50: the tree must find the threshold.
	attrs := []core.Attribute{
		contAttr("x", false),
		contAttr("y", true),
	}
	rng := rand.New(rand.NewSource(8))
	var rows []map[string]rowset.Value
	for i := 0; i < 400; i++ {
		x := rng.Float64() * 100
		y := 5.0
		if x > 50 {
			y = 50
		}
		rows = append(rows, map[string]rowset.Value{"x": x, "y": y + rng.NormFloat64()*0.5})
	}
	cs := buildCaseset(attrs, rows)
	target, _ := cs.Space.Lookup("y")
	m := train(t, cs, []int{target}, nil)
	xIdx, _ := cs.Space.Lookup("x")
	for _, tc := range []struct {
		x, lo, hi float64
	}{{20, 3, 7}, {80, 48, 52}} {
		c := core.NewCase()
		c.Set(xIdx, tc.x)
		p, err := m.Predict(c, target)
		if err != nil {
			t.Fatal(err)
		}
		if y := p.Estimate.(float64); y < tc.lo || y > tc.hi {
			t.Errorf("y(x=%v) = %v want in [%v,%v]", tc.x, y, tc.lo, tc.hi)
		}
	}
}

// Property: leaf supports along any root-to-leaf path partition the root
// support (no cases are lost or duplicated by splitting).
func TestSupportConservation(t *testing.T) {
	cs := colorCaseset(200)
	target, _ := cs.Space.Lookup("class")
	m := train(t, cs, []int{target}, nil)
	root := m.Tree(target)
	var walk func(n *node) float64
	walk = func(n *node) float64 {
		if n.attr < 0 {
			return n.support
		}
		var sum float64
		for _, c := range n.children {
			sum += walk(c)
		}
		return sum
	}
	if got, want := walk(root), root.support; math.Abs(got-want) > 1e-9 {
		t.Errorf("leaf support sum %v != root support %v", got, want)
	}
}

// interiorNodes counts the split nodes of every tree of the model.
func interiorNodes(m *Model) int {
	var rec func(*node) int
	rec = func(n *node) int {
		if n.attr < 0 {
			return 0
		}
		total := 1
		for _, c := range n.children {
			total += rec(c)
		}
		return total
	}
	total := 0
	for _, tree := range m.trees {
		total += rec(tree)
	}
	return total
}

// TestPartitionOncePerInteriorNode: candidate splits are weighed from
// contingency tables; only the split a node settles on partitions its cases.
func TestPartitionOncePerInteriorNode(t *testing.T) {
	// A noisy rule over a discrete and a continuous input: a deep tree with
	// dozens of thresholds weighed at every node.
	attrs := []core.Attribute{
		discreteAttr("color", []string{"red", "blue", "green"}, false),
		contAttr("x", false),
		discreteAttr("class", []string{"hi", "lo"}, true),
	}
	rng := rand.New(rand.NewSource(5))
	var rows []map[string]rowset.Value
	for i := 0; i < 600; i++ {
		x, color := rng.Float64()*100, int64(rng.Intn(3))
		class := int64(0)
		if (x > 40) != (color == 1) || rng.Float64() < 0.1 {
			class = 1
		}
		rows = append(rows, map[string]rowset.Value{"color": color, "x": x, "class": class})
	}
	classification := buildCaseset(attrs, rows)
	// The same inputs with a continuous target: y steps at x = 40.
	attrs[2] = contAttr("class", true)
	for _, r := range rows {
		r["class"] = r["x"].(float64)/10 + 50*float64(r["class"].(int64))
	}
	regression := buildCaseset(attrs, rows)
	for name, cs := range map[string]*core.Caseset{
		"classification": classification, "regression": regression, "existence": basketCaseset(200),
	} {
		m := train(t, cs, cs.Space.Targets(), map[string]string{"MINIMUM_SUPPORT": "2", "COMPLEXITY_PENALTY": "0"})
		if interior := interiorNodes(m); interior < 2 || m.partitions != interior {
			t.Errorf("%s: %d partition calls for %d interior nodes", name, m.partitions, interior)
		}
	}
}

// TestPredictSharesTheLeafPrediction: a prediction is built with the tree, not
// per case.
func TestPredictSharesTheLeafPrediction(t *testing.T) {
	cs := colorCaseset(200)
	target, _ := cs.Space.Lookup("class")
	m := train(t, cs, []int{target}, nil)
	c := cs.Case(3)
	want, err := m.Predict(c, target)
	if err != nil || len(want.Histogram) != 2 {
		t.Fatalf("prediction = %+v, %v", want, err)
	}
	if n := testing.AllocsPerRun(200, func() { _, _ = m.Predict(c, target) }); n > 1 {
		t.Errorf("%v allocations per Predict, want at most 1", n)
	}
	again, _ := m.Predict(cs.Case(5), target)
	if &again.Histogram[0] != &want.Histogram[0] {
		t.Error("two cases in one leaf got separate histograms")
	}
}

// TestPredictBatchAllocatesColumnsOnly: filling a batch through
// core.PredictInto copies every case's leaf prediction into the columns — the
// leaf's own histogram when the batch carries histograms — and, without them,
// allocates the columns and nothing per case.
func TestPredictBatchAllocatesColumnsOnly(t *testing.T) {
	cs := colorCaseset(1024)
	target, _ := cs.Space.Lookup("class")
	m := train(t, cs, []int{target}, nil)
	var out core.PredictionBatch
	fill := func(hist bool) {
		out.Reset(cs.Len(), hist)
		for i := range cs.Len() {
			if err := core.PredictInto(m, cs.Case(i), target, "", &out, i); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill(true)
	for _, i := range []int{0, 1, 517} {
		p, _ := m.Predict(cs.Case(i), target)
		if out.Estimate[i] != p.Estimate || out.Prob[i] != p.Prob || &out.Histogram[i][0] != &p.Histogram[0] {
			t.Errorf("case %d: batch %v (%v), case %v (%v)", i, out.Estimate[i], out.Prob[i], p.Estimate, p.Prob)
		}
	}
	if n := testing.AllocsPerRun(20, func() { fill(false) }); n > 2 {
		t.Errorf("%v allocations per batch of %d cases, want the 2 of its columns", n, cs.Len())
	}
	if err := core.PredictInto(m, cs.Case(0), 0, "", &out, 0); err == nil {
		t.Error("a prediction of an input attribute must fail")
	}
}

// forkCaseset is a noisy rule over a discrete and a continuous input, with a
// discrete and a continuous target, large enough that several nodes of each
// tree hold forkMinCases cases or more.
func forkCaseset(n int) *core.Caseset {
	attrs := []core.Attribute{
		discreteAttr("color", []string{"red", "blue", "green"}, false),
		contAttr("x", false),
		discreteAttr("class", []string{"hi", "lo"}, true),
		contAttr("y", true),
	}
	attrs[3].IsInput = false
	rng := rand.New(rand.NewSource(9))
	var rows []map[string]rowset.Value
	for i := 0; i < n; i++ {
		x, color := rng.Float64()*100, int64(rng.Intn(3))
		class := int64(0)
		if (x > 40) != (color == 1) || rng.Float64() < 0.1 {
			class = 1
		}
		y := x/10 + 50*float64(class) + rng.NormFloat64()
		rows = append(rows, map[string]rowset.Value{"color": color, "x": x, "class": class, "y": y})
	}
	return buildCaseset(attrs, rows)
}

// TestTrainSameAtEveryWorkerCount: trees whose subtrees and targets grow as
// parallel tasks have the same content, predictions and partition count at
// every worker bound.
func TestTrainSameAtEveryWorkerCount(t *testing.T) {
	cs := forkCaseset(6000)
	var forking func(*node) int
	forking = func(n *node) int {
		if n.attr < 0 || n.support < forkMinCases {
			return 0
		}
		total := 1
		for _, c := range n.children {
			total += forking(c)
		}
		return total
	}
	var base *Model
	var basePreds []core.Prediction
	for _, workers := range []int{1, 2, 8} {
		tm, err := New().Train(context.Background(), cs, cs.Space.Targets(), nil, workers)
		if err != nil {
			t.Fatal(err)
		}
		m := tm.(*Model)
		var preds []core.Prediction
		for i := 0; i < cs.Len(); i += 7 {
			for _, target := range cs.Space.Targets() {
				p, err := m.Predict(cs.Case(i), target)
				if err != nil {
					t.Fatal(err)
				}
				preds = append(preds, p)
			}
		}
		if base == nil {
			base, basePreds = m, preds
			n := 0
			for _, tree := range m.trees {
				n += forking(tree)
			}
			if n < 3 {
				t.Fatalf("only %d nodes fork", n)
			}
			continue
		}
		if !reflect.DeepEqual(m.Content(), base.Content()) {
			t.Errorf("workers=%d: content differs from workers=1", workers)
		}
		if !reflect.DeepEqual(preds, basePreds) {
			t.Errorf("workers=%d: predictions differ from workers=1", workers)
		}
		if m.partitions != base.partitions || m.partitions != interiorNodes(m) {
			t.Errorf("workers=%d: %d partitions, %d at workers=1, %d interior nodes", workers, m.partitions, base.partitions, interiorNodes(m))
		}
	}
}

// cancelAtPoll is a context cancelled on the n-th call of Done: growth polls
// Done once per node, so Train is cancelled mid-growth.
type cancelAtPoll struct {
	context.Context
	cancel context.CancelFunc
	n      int32
	polls  atomic.Int32
}

func (c *cancelAtPoll) Done() <-chan struct{} {
	if c.polls.Add(1) == c.n {
		c.cancel()
	}
	return c.Context.Done()
}

// TestTrainCancelledMidGrowth: cancelled while it grows its trees, Train
// returns ctx.Err() and leaves no goroutine running.
func TestTrainCancelledMidGrowth(t *testing.T) {
	cs := forkCaseset(6000)
	for _, workers := range []int{1, 4} {
		goroutines := runtime.NumGoroutine()
		inner, cancel := context.WithCancel(context.Background())
		ctx := &cancelAtPoll{Context: inner, cancel: cancel, n: 20}
		_, err := New().Train(ctx, cs, cs.Space.Targets(), nil, workers)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ctx.polls.Load() < 20 {
			t.Fatalf("workers=%d: cancelled after growth ended", workers)
		}
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: %d goroutines after Train, %d before", workers, runtime.NumGoroutine(), goroutines)
			}
		}
	}
}
