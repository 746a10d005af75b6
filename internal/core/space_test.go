package core

import (
	"testing"

	"repro/internal/rowset"
)

func TestAttributeSpaceAddDedupes(t *testing.T) {
	sp := NewAttributeSpace()
	i1 := sp.Add(Attribute{Name: "a"})
	i2 := sp.Add(Attribute{Name: "a"})
	if i1 != i2 || sp.Len() != 1 {
		t.Errorf("duplicate Add: %d %d len=%d", i1, i2, sp.Len())
	}
	if _, ok := sp.Lookup("b"); ok {
		t.Error("lookup of missing attribute")
	}
}

func TestStateIndex(t *testing.T) {
	a := Attribute{States: []string{"x", "y", "x"}}
	a.indexStates()
	if a.StateIndex("y") != 1 || a.StateIndex("z") != -1 || a.StateIndex("x") != 0 {
		t.Error("StateIndex")
	}
}

func TestBucketBounds(t *testing.T) {
	a := Attribute{Cuts: []float64{10, 20}, Lo: 2, Hi: 35}
	cases := []struct {
		bucket int
		lo, hi float64
		ok     bool
	}{
		{0, 2, 10, true},
		{1, 10, 20, true},
		{2, 20, 35, true},
		{3, 0, 0, false},
		{-1, 0, 0, false},
	}
	for _, c := range cases {
		lo, hi, ok := a.BucketBounds(c.bucket)
		if ok != c.ok || (ok && (lo != c.lo || hi != c.hi)) {
			t.Errorf("BucketBounds(%d) = %v %v %v", c.bucket, lo, hi, ok)
		}
	}
	none := Attribute{}
	if _, _, ok := none.BucketBounds(0); ok {
		t.Error("no cuts → no bounds")
	}
}

func TestModelReset(t *testing.T) {
	m := &Model{
		Def:       &ModelDef{Name: "m"},
		Space:     NewAttributeSpace(),
		Trained:   fakeTrained{},
		CaseCount: 10,
	}
	if !m.IsTrained() {
		t.Fatal("fixture should be trained")
	}
	m.Reset()
	if m.IsTrained() || m.Space != nil || m.CaseCount != 0 {
		t.Errorf("reset left state: %+v", m)
	}
}

type fakeTrained struct{}

func (fakeTrained) AlgorithmName() string { return "fake" }
func (fakeTrained) Predict(Case, int) (Prediction, error) {
	return Prediction{}, nil
}
func (fakeTrained) PredictTable(Case, string) (Prediction, error) {
	return Prediction{}, nil
}
func (fakeTrained) Content() *ContentNode { return nil }

func TestFrozenTokenizerFromPersistedSpace(t *testing.T) {
	def := &ModelDef{
		Name: "m", Algorithm: "x",
		Columns: []ColumnDef{
			{Name: "id", DataType: rowset.TypeLong, Content: ContentKey},
			{Name: "g", DataType: rowset.TypeText, Content: ContentAttribute, AttrType: AttrDiscrete},
		},
	}
	// Simulate a decoded space: index map is nil.
	space := &AttributeSpace{Attrs: []Attribute{
		{Name: "g", Column: "g", Kind: KindDiscrete, States: []string{"a", "b"}, IsInput: true},
	}}
	space.Reindex()
	tk := NewTokenizerWithSpace(def, space)
	tk.Freeze()
	rs := rowset.New(rowset.MustSchema(
		rowset.Column{Name: "id", Type: rowset.TypeLong},
		rowset.Column{Name: "g", Type: rowset.TypeText},
	))
	mustAppend(rs, int64(1), "b")
	cs, err := tk.Tokenize(rs)
	if err != nil {
		t.Fatal(err)
	}
	gi, ok := space.Lookup("g")
	if !ok {
		t.Fatal("index not rebuilt")
	}
	if cs.Case(0).Discrete(gi) != 1 {
		t.Errorf("state = %d", cs.Case(0).Discrete(gi))
	}
}

func TestCaseAccessors(t *testing.T) {
	c := NewCase()
	if c.Weight != 1 {
		t.Error("default weight")
	}
	if c.Discrete(0) != -1 {
		t.Error("missing discrete = -1")
	}
	if _, ok := c.Continuous(0); ok {
		t.Error("missing continuous")
	}
	if c.ProbOf(3) != 1 {
		t.Error("default prob = 1")
	}
	c.Set(0, 2.5)
	if c.Discrete(0) != -1 {
		t.Error("float value is not a discrete state")
	}
	if v, ok := c.Continuous(0); !ok || v != 2.5 {
		t.Error("continuous read")
	}
	c.SetProb(0, 0.5)
	c.SetProb(7, 0.25) // no value, nothing to qualify
	if c.ProbOf(0) != 0.5 || c.ProbOf(7) != 1 {
		t.Error("prob read")
	}
	// Cells stay sorted whatever order values arrive in; a repeated attribute
	// overwrites the value and keeps the certainty.
	c.Set(9, int64(4))
	c.Set(3, true)
	c.Set(0, 7.0)
	if got := c.Cells(); len(got) != 3 || got[0].Attr != 0 || got[1].Attr != 3 || got[2].Attr != 9 {
		t.Errorf("cells = %+v", got)
	}
	if v, _ := c.Continuous(0); v != 7 || c.ProbOf(0) != 0.5 || c.Discrete(9) != 4 || !c.Has(3) {
		t.Errorf("after overwrite: %+v", c.Cells())
	}
}

func TestTotalWeight(t *testing.T) {
	cs := &Caseset{Space: NewAttributeSpace()}
	for _, w := range []float64{1, 2, 3.5} {
		c := NewCase()
		c.Weight = w
		cs.Append(c)
	}
	if cs.TotalWeight() != 6.5 || cs.Len() != 3 {
		t.Errorf("total = %v len = %d", cs.TotalWeight(), cs.Len())
	}
}

func TestAttributeKindString(t *testing.T) {
	if KindDiscrete.String() != "DISCRETE" || KindExistence.String() != "EXISTENCE" {
		t.Error("kind strings")
	}
}
