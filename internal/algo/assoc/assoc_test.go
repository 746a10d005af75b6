package assoc

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
)

// marketCaseset plants: {beer, chips} co-occur strongly; milk is common but
// independent; rare items fall below support.
func marketCaseset(n int) *core.Caseset {
	sp := core.NewAttributeSpace()
	items := []string{"beer", "chips", "milk", "bread", "caviar"}
	for _, it := range items {
		sp.Add(core.Attribute{
			Name: "Products(" + it + ")", Column: "Products", NestedKey: it,
			Kind: core.KindExistence, IsInput: true, IsTarget: true,
		})
	}
	idx := func(name string) int {
		i, _ := sp.Lookup("Products(" + name + ")")
		return i
	}
	cs := &core.Caseset{Space: sp}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < n; i++ {
		c := core.NewCase()
		if i%2 == 0 {
			c.Set(idx("beer"), true)
			if rng.Float64() < 0.9 {
				c.Set(idx("chips"), true)
			}
		}
		if rng.Float64() < 0.5 {
			c.Set(idx("milk"), true)
		}
		if rng.Float64() < 0.3 {
			c.Set(idx("bread"), true)
		}
		if i == 0 {
			c.Set(idx("caviar"), true) // singleton, below support
		}
		cs.Append(c)
	}
	return cs
}

func trainAssoc(t *testing.T, cs *core.Caseset, params map[string]string) *Model {
	t.Helper()
	tm, err := New().Train(context.Background(), cs, nil, params, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tm.(*Model)
}

func TestFrequentItemsets(t *testing.T) {
	cs := marketCaseset(200)
	m := trainAssoc(t, cs, map[string]string{"MINIMUM_SUPPORT": "0.1"})
	// beer+chips must be a frequent 2-itemset; caviar must not appear.
	foundPair, foundCaviar := false, false
	for _, is := range m.Itemsets() {
		caption := m.itemsetCaption(is.Items)
		if caption == "beer, chips" || caption == "chips, beer" {
			foundPair = true
			if is.Support < 80 {
				t.Errorf("beer+chips support = %v", is.Support)
			}
		}
		if strings.Contains(caption, "caviar") {
			foundCaviar = true
		}
	}
	if !foundPair {
		t.Error("beer+chips itemset missing")
	}
	if foundCaviar {
		t.Error("caviar exceeds min support?")
	}
}

func TestRulesHaveConfidenceAndLift(t *testing.T) {
	cs := marketCaseset(200)
	m := trainAssoc(t, cs, map[string]string{"MINIMUM_SUPPORT": "0.1", "MINIMUM_PROBABILITY": "0.6"})
	var beerToChips *Rule
	for i := range m.Rules() {
		r := &m.Rules()[i]
		if len(r.Antecedent) == 1 && m.itemName(r.Antecedent[0]) == "beer" && m.itemName(r.Consequent) == "chips" {
			beerToChips = r
		}
	}
	if beerToChips == nil {
		t.Fatal("beer→chips rule missing")
	}
	if beerToChips.Confidence < 0.8 {
		t.Errorf("confidence = %v", beerToChips.Confidence)
	}
	if beerToChips.Lift < 1.2 {
		t.Errorf("lift = %v, beer should lift chips", beerToChips.Lift)
	}
}

func TestPredictTableRecommendsChips(t *testing.T) {
	cs := marketCaseset(200)
	m := trainAssoc(t, cs, map[string]string{"MINIMUM_SUPPORT": "0.1"})
	bi, _ := cs.Space.Lookup("Products(beer)")
	c := core.NewCase()
	c.Set(bi, true)
	p, err := m.PredictTable(c, "Products")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Histogram) == 0 || p.Histogram[0].Value != "chips" {
		t.Fatalf("recommendation = %+v", p.Histogram)
	}
	for _, b := range p.Histogram {
		if b.Value == "beer" {
			t.Error("input item must not be recommended")
		}
	}
	if _, err := m.PredictTable(c, "Nope"); err == nil {
		t.Error("unknown table must fail")
	}
}

func TestPopularityFallback(t *testing.T) {
	cs := marketCaseset(200)
	m := trainAssoc(t, cs, map[string]string{"MINIMUM_SUPPORT": "0.1"})
	// Empty basket: no rule fires; ranking follows popularity, so milk or
	// chips/beer (all popular) outrank bread.
	p, err := m.PredictTable(core.NewCase(), "Products")
	if err != nil {
		t.Fatal(err)
	}
	last := p.Histogram[len(p.Histogram)-1]
	if last.Value != "caviar" {
		t.Errorf("least popular item must rank last, got %v", last.Value)
	}
}

func TestPredictItem(t *testing.T) {
	cs := marketCaseset(200)
	m := trainAssoc(t, cs, map[string]string{"MINIMUM_SUPPORT": "0.1"})
	bi, _ := cs.Space.Lookup("Products(beer)")
	ci, _ := cs.Space.Lookup("Products(chips)")
	c := core.NewCase()
	c.Set(bi, true)
	p, err := m.Predict(c, ci)
	if err != nil {
		t.Fatal(err)
	}
	if p.Estimate != "present" || p.Prob < 0.8 {
		t.Errorf("chips given beer = %v (%v)", p.Estimate, p.Prob)
	}
}

func TestMaxItemsetSize(t *testing.T) {
	cs := marketCaseset(200)
	m := trainAssoc(t, cs, map[string]string{"MINIMUM_SUPPORT": "0.05", "MAXIMUM_ITEMSET_SIZE": "1"})
	for _, is := range m.Itemsets() {
		if len(is.Items) > 1 {
			t.Errorf("itemset %v exceeds max size 1", is.Items)
		}
	}
	if len(m.Rules()) != 0 {
		t.Error("size-1 itemsets cannot generate rules")
	}
}

func TestContent(t *testing.T) {
	cs := marketCaseset(200)
	m := trainAssoc(t, cs, map[string]string{"MINIMUM_SUPPORT": "0.1", "MINIMUM_PROBABILITY": "0.6"})
	root := m.Content()
	var itemsets, rules int
	root.Walk(func(n, _ *core.ContentNode) {
		switch n.Type {
		case core.NodeItemset:
			itemsets++
		case core.NodeRule:
			rules++
			if !strings.Contains(n.Caption, "->") {
				t.Errorf("rule caption = %q", n.Caption)
			}
		}
	})
	if itemsets == 0 || rules == 0 {
		t.Errorf("content: %d itemsets, %d rules", itemsets, rules)
	}
}

func TestErrors(t *testing.T) {
	cs := marketCaseset(20)
	for _, p := range []map[string]string{
		{"MINIMUM_SUPPORT": "0"},
		{"MINIMUM_PROBABILITY": "2"},
		{"MAXIMUM_ITEMSET_SIZE": "0"},
		{"MAXIMUM_ITEMSET_COUNT": "0"},
		{"HUH": "1"},
	} {
		if _, err := New().Train(context.Background(), cs, nil, p, 0); err == nil {
			t.Errorf("params %v must fail", p)
		}
	}
	// No existence attributes.
	sp := core.NewAttributeSpace()
	sp.Add(core.Attribute{Name: "x", Column: "x", Kind: core.KindDiscrete, States: []string{"a"}})
	flat := &core.Caseset{Space: sp}
	flat.Append(core.NewCase())
	if _, err := New().Train(context.Background(), flat, nil, nil, 0); err == nil {
		t.Error("no existence attributes must fail")
	}
	if _, err := New().Train(context.Background(), &core.Caseset{Space: sp}, nil, nil, 0); err == nil {
		t.Error("empty caseset must fail")
	}
	m := trainAssoc(t, cs, nil)
	if _, err := m.Predict(core.NewCase(), 999); err == nil {
		t.Error("bad target must fail")
	}
}

func TestAbsoluteMinSupport(t *testing.T) {
	cs := marketCaseset(100)
	// Absolute support of 200 exceeds every item's weight (~100 cases).
	m := trainAssoc(t, cs, map[string]string{"MINIMUM_SUPPORT": "200"})
	if len(m.Itemsets()) != 0 {
		t.Errorf("no itemset should clear absolute support 200: %d", len(m.Itemsets()))
	}
}
