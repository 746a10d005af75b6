package markov

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
)

// cyclicCases plants the pattern A → B → C (→ A ...) with n cases of varying
// lengths.
func cyclicCases(n int) *core.Caseset {
	sp := core.NewAttributeSpace()
	cs := &core.Caseset{Space: sp}
	cycle := []string{"A", "B", "C"}
	for i := 0; i < n; i++ {
		c := core.NewCase()
		length := 2 + i%4
		seq := make([]string, length)
		for j := 0; j < length; j++ {
			seq[j] = cycle[(i+j)%3]
		}
		c.Sequences = []core.Sequence{{Table: "Clicks", Keys: seq}}
		cs.Append(c)
	}
	return cs
}

func TestLearnsTransitions(t *testing.T) {
	cs := cyclicCases(120)
	tm, err := New().Train(context.Background(), cs, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := tm.(*Model)
	// After "A" the next item is always "B".
	c := core.NewCase()
	c.Sequences = []core.Sequence{{Table: "Clicks", Keys: []string{"C", "A"}}}
	p, err := m.PredictTable(c, "Clicks")
	if err != nil {
		t.Fatal(err)
	}
	if p.Estimate != "B" {
		t.Errorf("next after A = %v (%+v)", p.Estimate, p.Histogram)
	}
	if p.Prob < 0.9 {
		t.Errorf("confidence = %v", p.Prob)
	}
	// Histogram covers every non-start state and sums to ~1.
	if len(p.Histogram) != 3 {
		t.Errorf("histogram states = %d", len(p.Histogram))
	}
	var sum float64
	for _, b := range p.Histogram {
		sum += b.Prob
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probs sum to %v", sum)
	}
}

func TestEmptySequenceUsesStartState(t *testing.T) {
	cs := cyclicCases(120)
	tm, _ := New().Train(context.Background(), cs, nil, nil, 0)
	p, err := tm.PredictTable(core.NewCase(), "Clicks")
	if err != nil {
		t.Fatal(err)
	}
	// Cases start at A, B, or C uniformly; the top start probability is
	// roughly a third.
	if p.Prob < 0.2 || p.Prob > 0.5 {
		t.Errorf("start prob = %v", p.Prob)
	}
}

func TestUnknownLastStateFallsBack(t *testing.T) {
	cs := cyclicCases(60)
	tm, _ := New().Train(context.Background(), cs, nil, nil, 0)
	c := core.NewCase()
	c.Sequences = []core.Sequence{{Table: "Clicks", Keys: []string{"ZZZ"}}}
	p, err := tm.PredictTable(c, "Clicks")
	if err != nil || len(p.Histogram) == 0 {
		t.Errorf("fallback prediction = %+v, %v", p, err)
	}
}

func TestCaseWeightCounts(t *testing.T) {
	sp := core.NewAttributeSpace()
	cs := &core.Caseset{Space: sp}
	heavy := core.NewCase()
	heavy.Weight = 9
	heavy.Sequences = []core.Sequence{{Table: "S", Keys: []string{"x", "y"}}}
	light := core.NewCase()
	light.Sequences = []core.Sequence{{Table: "S", Keys: []string{"x", "z"}}}
	cs.Append(heavy)
	cs.Append(light)
	tm, err := New().Train(context.Background(), cs, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := core.NewCase()
	c.Sequences = []core.Sequence{{Table: "S", Keys: []string{"x"}}}
	p, _ := tm.PredictTable(c, "S")
	if p.Estimate != "y" {
		t.Errorf("weighted transition = %v", p.Estimate)
	}
	if p.Best().Support != 9 {
		t.Errorf("support = %v", p.Best().Support)
	}
}

func TestContentTransitionGraph(t *testing.T) {
	cs := cyclicCases(60)
	tm, _ := New().Train(context.Background(), cs, nil, nil, 0)
	root := tm.Content()
	// One chain node, 4 state nodes (start + A,B,C).
	if len(root.Children) != 1 {
		t.Fatalf("chains = %d", len(root.Children))
	}
	if got := len(root.Children[0].Children); got != 4 {
		t.Errorf("state nodes = %d", got)
	}
	aNode := root.Find(func(n *core.ContentNode) bool { return n.Caption == "A" })
	if aNode == nil || len(aNode.Distribution) == 0 {
		t.Fatalf("state A node = %+v", aNode)
	}
	if aNode.Distribution[0].Value != "-> B" {
		t.Errorf("A's top transition = %v", aNode.Distribution[0].Value)
	}
}

func TestErrors(t *testing.T) {
	cs := cyclicCases(10)
	if _, err := New().Train(context.Background(), cs, nil, map[string]string{"PSEUDOCOUNT": "-1"}, 0); err == nil {
		t.Error("bad pseudocount must fail")
	}
	if _, err := New().Train(context.Background(), cs, nil, map[string]string{"X": "1"}, 0); err == nil {
		t.Error("unknown param must fail")
	}
	if _, err := New().Train(context.Background(), &core.Caseset{Space: core.NewAttributeSpace()}, nil, nil, 0); err == nil {
		t.Error("empty caseset must fail")
	}
	// No sequences at all.
	noSeq := &core.Caseset{Space: core.NewAttributeSpace()}
	noSeq.Append(core.NewCase())
	if _, err := New().Train(context.Background(), noSeq, nil, nil, 0); err == nil {
		t.Error("caseset without sequences must fail")
	}
	tm, _ := New().Train(context.Background(), cs, nil, nil, 0)
	if _, err := tm.Predict(core.NewCase(), 0); err == nil {
		t.Error("scalar predict must fail")
	}
	if _, err := tm.PredictTable(core.NewCase(), "NoSuchTable"); err == nil {
		t.Error("unknown table must fail")
	}
}

func TestMultipleChains(t *testing.T) {
	sp := core.NewAttributeSpace()
	cs := &core.Caseset{Space: sp}
	c := core.NewCase()
	c.Sequences = []core.Sequence{
		{Table: "Pages", Keys: []string{"home", "cart"}},
		{Table: "Clicks", Keys: []string{"a", "b"}},
	}
	cs.Append(c)
	tm, err := New().Train(context.Background(), cs, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := tm.(*Model)
	if _, ok := m.Chain("pages"); !ok {
		t.Error("Pages chain missing (case-insensitive)")
	}
	if _, ok := m.Chain("Clicks"); !ok {
		t.Error("Clicks chain missing")
	}
}
