package core

import (
	"context"
	"testing"

	"repro/internal/rowset"
)

// paperCaseset builds the hierarchical rowset of Table 1: customer 1 with 4
// purchases and 2 cars (one at 50% certainty), plus a second customer.
func paperCaseset(t *testing.T) *rowset.Rowset {
	t.Helper()
	purchSchema := rowset.MustSchema(
		rowset.Column{Name: "Product Name", Type: rowset.TypeText},
		rowset.Column{Name: "Quantity", Type: rowset.TypeDouble},
		rowset.Column{Name: "Product Type", Type: rowset.TypeText},
	)
	carSchema := rowset.MustSchema(
		rowset.Column{Name: "Car", Type: rowset.TypeText},
		rowset.Column{Name: "Probability", Type: rowset.TypeDouble},
	)
	schema := rowset.MustSchema(
		rowset.Column{Name: "Customer ID", Type: rowset.TypeLong},
		rowset.Column{Name: "Gender", Type: rowset.TypeText},
		rowset.Column{Name: "Age", Type: rowset.TypeDouble},
		rowset.Column{Name: "Product Purchases", Type: rowset.TypeTable, Nested: purchSchema},
		rowset.Column{Name: "Car Ownership", Type: rowset.TypeTable, Nested: carSchema},
	)

	p1 := rowset.New(purchSchema)
	mustAppend(p1, "TV", 1.0, "Electronic")
	mustAppend(p1, "VCR", 1.0, "Electronic")
	mustAppend(p1, "Ham", 2.0, "Food")
	mustAppend(p1, "Beer", 6.0, "Beverage")
	c1 := rowset.New(carSchema)
	mustAppend(c1, "Truck", 1.0)
	mustAppend(c1, "Van", 0.5)

	p2 := rowset.New(purchSchema)
	mustAppend(p2, "TV", 1.0, "Electronic")
	c2 := rowset.New(carSchema)

	rs := rowset.New(schema)
	mustAppend(rs, int64(1), "Male", 35.0, p1, c1)
	mustAppend(rs, int64(2), "Female", 28.0, p2, c2)
	return rs
}

func tableModelDef() *ModelDef {
	return &ModelDef{
		Name: "t1", Algorithm: "Decision_Trees",
		Columns: []ColumnDef{
			{Name: "Customer ID", DataType: rowset.TypeLong, Content: ContentKey},
			{Name: "Gender", DataType: rowset.TypeText, Content: ContentAttribute, AttrType: AttrDiscrete},
			{Name: "Age", DataType: rowset.TypeDouble, Content: ContentAttribute, AttrType: AttrContinuous, Predict: true},
			{Name: "Product Purchases", Content: ContentTable, Table: []ColumnDef{
				{Name: "Product Name", DataType: rowset.TypeText, Content: ContentKey},
				{Name: "Quantity", DataType: rowset.TypeDouble, Content: ContentAttribute, AttrType: AttrContinuous},
				{Name: "Product Type", DataType: rowset.TypeText, Content: ContentRelation, RelatedTo: "Product Name"},
			}},
			{Name: "Car Ownership", Content: ContentTable, Table: []ColumnDef{
				{Name: "Car", DataType: rowset.TypeText, Content: ContentKey},
				{Name: "Probability", DataType: rowset.TypeDouble, Content: ContentQualifier,
					Qualifier: QualProbability, QualifierOf: "Car"},
			}},
		},
	}
}

func TestTokenizePaperCase(t *testing.T) {
	def := tableModelDef()
	if err := def.Validate(); err != nil {
		t.Fatal(err)
	}
	tk := NewTokenizer(def)
	cs, err := tk.Tokenize(paperCaseset(t))
	if err != nil {
		t.Fatal(err)
	}
	if cs.Len() != 2 {
		t.Fatalf("cases = %d", cs.Len())
	}
	sp := cs.Space
	c1 := cs.Case(0)

	// Scalar attributes.
	gIdx, ok := sp.Lookup("Gender")
	if !ok {
		t.Fatal("Gender attribute missing")
	}
	if st := c1.Discrete(gIdx); st != 0 || sp.Attr(gIdx).States[st] != "Male" {
		t.Errorf("gender state = %d", st)
	}
	aIdx, _ := sp.Lookup("Age")
	if f, ok := c1.Continuous(aIdx); !ok || f != 35 {
		t.Errorf("age = %v %v", f, ok)
	}
	if c1.Key != int64(1) {
		t.Errorf("key = %v", c1.Key)
	}

	// Existence attributes from Product Purchases.
	tvIdx, ok := sp.Lookup("Product Purchases(TV)")
	if !ok {
		t.Fatal("existence attribute for TV missing")
	}
	if !c1.Has(tvIdx) {
		t.Error("customer 1 bought a TV")
	}
	c2 := cs.Case(1)
	beerIdx, _ := sp.Lookup("Product Purchases(Beer)")
	if c2.Has(beerIdx) {
		t.Error("customer 2 did not buy beer")
	}
	if !c2.Has(tvIdx) {
		t.Error("customer 2 bought a TV")
	}

	// Nested valued attribute.
	qIdx, ok := sp.Lookup("Product Purchases(Beer).Quantity")
	if !ok {
		t.Fatal("nested quantity attribute missing")
	}
	if f, _ := c1.Continuous(qIdx); f != 6 {
		t.Errorf("beer quantity = %v", f)
	}

	// RELATED TO recorded.
	if rel, ok := sp.Relation("Product Purchases", "Ham"); !ok || rel != "Food" {
		t.Errorf("relation Ham = %q %v", rel, ok)
	}

	// Qualifier of nested key: Van at 50%.
	vanIdx, ok := sp.Lookup("Car Ownership(Van)")
	if !ok {
		t.Fatal("Van existence attribute missing")
	}
	if p := c1.ProbOf(vanIdx); p != 0.5 {
		t.Errorf("van probability = %v", p)
	}
	truckIdx, _ := sp.Lookup("Car Ownership(Truck)")
	if p := c1.ProbOf(truckIdx); p != 1.0 {
		t.Errorf("truck probability = %v", p)
	}
}

func TestTokenizeTargets(t *testing.T) {
	def := tableModelDef()
	tk := NewTokenizer(def)
	cs, err := tk.Tokenize(paperCaseset(t))
	if err != nil {
		t.Fatal(err)
	}
	targets := cs.Space.Targets()
	if len(targets) != 1 {
		t.Fatalf("targets = %v", targets)
	}
	if cs.Space.Attr(targets[0]).Name != "Age" {
		t.Errorf("target = %s", cs.Space.Attr(targets[0]).Name)
	}
}

func TestTokenizeMissingColumnTraining(t *testing.T) {
	def := tableModelDef()
	tk := NewTokenizer(def)
	rs := rowset.New(rowset.MustSchema(
		rowset.Column{Name: "Customer ID", Type: rowset.TypeLong},
	))
	mustAppend(rs, int64(1))
	if _, err := tk.Tokenize(rs); err == nil {
		t.Error("training without attribute columns must fail")
	}
}

func TestFrozenTokenizerAllowsSubset(t *testing.T) {
	def := tableModelDef()
	tk := NewTokenizer(def)
	if _, err := tk.Tokenize(paperCaseset(t)); err != nil {
		t.Fatal(err)
	}
	tk.Freeze()
	// Prediction input: gender only.
	rs := rowset.New(rowset.MustSchema(
		rowset.Column{Name: "Customer ID", Type: rowset.TypeLong},
		rowset.Column{Name: "Gender", Type: rowset.TypeText},
	))
	mustAppend(rs, int64(9), "Male")
	cs, err := tk.Tokenize(rs)
	if err != nil {
		t.Fatal(err)
	}
	gIdx, _ := tk.Space.Lookup("Gender")
	if cs.Case(0).Discrete(gIdx) != 0 {
		t.Error("frozen tokenizer must reuse state dictionary")
	}
	// Unseen state is missing, not a new state.
	rs2 := rowset.New(rs.Schema())
	mustAppend(rs2, int64(10), "Other")
	cs2, err := tk.Tokenize(rs2)
	if err != nil {
		t.Fatal(err)
	}
	if cs2.Case(0).Has(gIdx) {
		t.Error("unseen state must tokenize as missing when frozen")
	}
	if len(tk.Space.Attr(gIdx).States) != 2 {
		t.Errorf("states grew while frozen: %v", tk.Space.Attr(gIdx).States)
	}
}

func TestDiscretizeAttr(t *testing.T) {
	def := &ModelDef{
		Name: "d", Algorithm: "x",
		Columns: []ColumnDef{
			{Name: "id", DataType: rowset.TypeLong, Content: ContentKey},
			{Name: "v", DataType: rowset.TypeDouble, Content: ContentAttribute, AttrType: AttrDiscretized},
		},
	}
	tk := NewTokenizer(def)
	rs := rowset.New(rowset.MustSchema(
		rowset.Column{Name: "id", Type: rowset.TypeLong},
		rowset.Column{Name: "v", Type: rowset.TypeDouble},
	))
	for i, f := range []float64{1, 5, 10, 20, 50} {
		mustAppend(rs, int64(i), f)
	}
	cs, err := tk.Tokenize(rs)
	if err != nil {
		t.Fatal(err)
	}
	vIdx, _ := tk.Space.Lookup("v")
	cs.DiscretizeAttr(vIdx, []float64{5, 20})
	a := tk.Space.Attr(vIdx)
	if a.Kind != KindDiscrete || len(a.States) != 3 {
		t.Fatalf("attr after discretize = %+v", a)
	}
	wantBuckets := []int{0, 0, 1, 1, 2}
	for i, w := range wantBuckets {
		if got := cs.Case(i).Discrete(vIdx); got != w {
			t.Errorf("case %d bucket = %d want %d", i, got, w)
		}
	}
	// Frozen tokenization of a new value must bucket it.
	tk.Freeze()
	rs2 := rowset.New(rs.Schema())
	mustAppend(rs2, int64(99), 7.0)
	cs2, err := tk.Tokenize(rs2)
	if err != nil {
		t.Fatal(err)
	}
	if cs2.Case(0).Discrete(vIdx) != 1 {
		t.Errorf("frozen bucket = %d want 1", cs2.Case(0).Discrete(vIdx))
	}
}

func TestBucketLabels(t *testing.T) {
	labels := BucketLabels([]float64{10, 20})
	want := []string{"<= 10", "(10, 20]", "> 20"}
	for i, w := range want {
		if labels[i] != w {
			t.Errorf("label %d = %q want %q", i, labels[i], w)
		}
	}
	if l := BucketLabels(nil); len(l) != 1 || l[0] != "(-inf, +inf)" {
		t.Errorf("empty cuts labels = %v", l)
	}
}

func TestSupportQualifierSetsWeight(t *testing.T) {
	def := &ModelDef{
		Name: "w", Algorithm: "x",
		Columns: []ColumnDef{
			{Name: "id", DataType: rowset.TypeLong, Content: ContentKey},
			{Name: "g", DataType: rowset.TypeText, Content: ContentAttribute, AttrType: AttrDiscrete},
			{Name: "w", DataType: rowset.TypeDouble, Content: ContentQualifier,
				Qualifier: QualSupport, QualifierOf: "g"},
		},
	}
	tk := NewTokenizer(def)
	rs := rowset.New(rowset.MustSchema(
		rowset.Column{Name: "id", Type: rowset.TypeLong},
		rowset.Column{Name: "g", Type: rowset.TypeText},
		rowset.Column{Name: "w", Type: rowset.TypeDouble},
	))
	mustAppend(rs, int64(1), "a", 3.0)
	mustAppend(rs, int64(2), "b", nil)
	cs, err := tk.Tokenize(rs)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Case(0).Weight != 3 || cs.Case(1).Weight != 1 {
		t.Errorf("weights = %v %v", cs.Case(0).Weight, cs.Case(1).Weight)
	}
	if cs.TotalWeight() != 4 {
		t.Errorf("total weight = %v", cs.TotalWeight())
	}
}

func TestNotNullEnforced(t *testing.T) {
	def := &ModelDef{
		Name: "nn", Algorithm: "x",
		Columns: []ColumnDef{
			{Name: "id", DataType: rowset.TypeLong, Content: ContentKey},
			{Name: "g", DataType: rowset.TypeText, Content: ContentAttribute, AttrType: AttrDiscrete, NotNull: true},
		},
	}
	tk := NewTokenizer(def)
	rs := rowset.New(rowset.MustSchema(
		rowset.Column{Name: "id", Type: rowset.TypeLong},
		rowset.Column{Name: "g", Type: rowset.TypeText},
	))
	mustAppend(rs, int64(1), nil)
	if _, err := tk.Tokenize(rs); err == nil {
		t.Error("NOT_NULL violation must fail in training")
	}
}

func TestModelExistenceOnly(t *testing.T) {
	def := &ModelDef{
		Name: "ex", Algorithm: "x",
		Columns: []ColumnDef{
			{Name: "id", DataType: rowset.TypeLong, Content: ContentKey},
			{Name: "Age", DataType: rowset.TypeDouble, Content: ContentAttribute,
				AttrType: AttrContinuous, ModelExistenceOnly: true},
		},
	}
	tk := NewTokenizer(def)
	rs := rowset.New(rowset.MustSchema(
		rowset.Column{Name: "id", Type: rowset.TypeLong},
		rowset.Column{Name: "Age", Type: rowset.TypeDouble},
	))
	mustAppend(rs, int64(1), 35.0)
	mustAppend(rs, int64(2), nil)
	cs, err := tk.Tokenize(rs)
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := tk.Space.Lookup("Age")
	if v, ok := cs.Case(0).Continuous(idx); !ok || v != 1 || cs.Case(0).Discrete(idx) != -1 {
		t.Errorf("existence-only value = %v %v", v, ok)
	}
	if cs.Case(1).Has(idx) {
		t.Error("NULL must be absent for existence-only attribute")
	}
}

func TestTableAttrsSorted(t *testing.T) {
	def := tableModelDef()
	tk := NewTokenizer(def)
	if _, err := tk.Tokenize(paperCaseset(t)); err != nil {
		t.Fatal(err)
	}
	idxs := tk.Space.TableAttrs("Product Purchases")
	if len(idxs) != 4 {
		t.Fatalf("table attrs = %d", len(idxs))
	}
	prev := ""
	for _, i := range idxs {
		k := tk.Space.Attr(i).NestedKey
		if k < prev {
			t.Errorf("table attrs not sorted: %q after %q", k, prev)
		}
		prev = k
	}
}

func TestPredictionSortHistogram(t *testing.T) {
	p := Prediction{Histogram: []Bucket{
		{Value: "a", Prob: 0.2},
		{Value: "b", Prob: 0.5, Support: 10},
		{Value: "c", Prob: 0.3},
	}}
	p.SortHistogram()
	if p.Estimate != "b" || p.Prob != 0.5 || p.Support != 10 {
		t.Errorf("sorted head = %+v", p)
	}
	if p.Histogram[2].Value != "a" {
		t.Errorf("order = %+v", p.Histogram)
	}
	if p.Best().Value != "b" {
		t.Error("Best")
	}
	empty := Prediction{Estimate: 1.5, Prob: 1}
	if empty.Best().Value != 1.5 {
		t.Error("Best of empty histogram")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Lookup("x"); err == nil {
		t.Error("empty registry lookup must fail")
	}
	r.Register(fakeAlgo{})
	if a, err := r.Lookup("FAKE"); err != nil || a.Name() != "Fake" {
		t.Errorf("lookup = %v %v", a, err)
	}
	if n := r.Names(); len(n) != 1 || n[0] != "Fake" {
		t.Errorf("names = %v", n)
	}
}

type fakeAlgo struct{}

func (fakeAlgo) Name() string               { return "Fake" }
func (fakeAlgo) Description() string        { return "fake" }
func (fakeAlgo) SupportsPredictTable() bool { return false }
func (fakeAlgo) Train(context.Context, *Caseset, []int, map[string]string, int) (TrainedModel, error) {
	return nil, nil
}

// TestFrozenTokenizationIsReadOnly pins down the invariant the parallel
// prediction scan depends on: tokenizing through a frozen tokenizer must not
// mutate the shared attribute space — no new attributes, no new discrete
// states, and (the historical leak) no relation writes from RELATED TO
// columns in prediction inputs.
func TestFrozenTokenizationIsReadOnly(t *testing.T) {
	tk := NewTokenizer(tableModelDef())
	if _, err := tk.Tokenize(paperCaseset(t)); err != nil {
		t.Fatal(err)
	}
	nAttrs := tk.Space.Len()
	nRel := len(tk.Space.Relations)
	states := append([]string(nil), tk.Space.Attr(mustLookup(t, tk.Space, "Gender")).States...)

	frozen := *tk
	frozen.Freeze()

	// A prediction input full of unseen values: new gender state, new nested
	// key, and a RELATED TO value that would have registered a new relation.
	purchSchema := rowset.MustSchema(
		rowset.Column{Name: "Product Name", Type: rowset.TypeText},
		rowset.Column{Name: "Quantity", Type: rowset.TypeDouble},
		rowset.Column{Name: "Product Type", Type: rowset.TypeText},
	)
	schema := rowset.MustSchema(
		rowset.Column{Name: "Customer ID", Type: rowset.TypeLong},
		rowset.Column{Name: "Gender", Type: rowset.TypeText},
		rowset.Column{Name: "Age", Type: rowset.TypeDouble},
		rowset.Column{Name: "Product Purchases", Type: rowset.TypeTable, Nested: purchSchema},
	)
	basket := rowset.New(purchSchema)
	mustAppend(basket, "Spaceship", 1.0, "Vehicle") // unseen key + new relation value
	mustAppend(basket, "TV", 1.0, "Refurbished")    // seen key, contradicting relation value
	row := rowset.Row{int64(9), "Nonbinary", 40.0, basket}
	cb, err := frozen.NewCaseBinder(BindByName(frozen.Def.Columns, schema))
	if err != nil {
		t.Fatal(err)
	}
	var c Case
	if err := cb.tokenizeRow(row, 0, &c); err != nil {
		t.Fatal(err)
	}

	if got := tk.Space.Len(); got != nAttrs {
		t.Errorf("frozen tokenization grew the space: %d -> %d attributes", nAttrs, got)
	}
	if got := len(tk.Space.Relations); got != nRel {
		t.Errorf("frozen tokenization wrote relations: %d -> %d", nRel, got)
	}
	if rel, _ := tk.Space.Relation("Product Purchases", "TV"); rel != "Electronic" {
		t.Errorf("relation for TV overwritten: %q", rel)
	}
	gotStates := tk.Space.Attr(mustLookup(t, tk.Space, "Gender")).States
	if len(gotStates) != len(states) {
		t.Errorf("frozen tokenization grew Gender states: %v -> %v", states, gotStates)
	}
}

func mustLookup(t *testing.T, sp *AttributeSpace, name string) int {
	t.Helper()
	i, ok := sp.Lookup(name)
	if !ok {
		t.Fatalf("attribute %q missing", name)
	}
	return i
}
