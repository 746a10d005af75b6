package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/rowset"
)

// TestCellHoldsNoPointers guards the property the arena depends on: a cell is
// plain numbers, so a caseset's cells cost the garbage collector nothing.
func TestCellHoldsNoPointers(t *testing.T) {
	typ := reflect.TypeOf(Cell{})
	for i := 0; i < typ.NumField(); i++ {
		switch k := typ.Field(i).Type.Kind(); k {
		case reflect.Int32, reflect.Float64:
		default:
			t.Errorf("Cell.%s is a %s; cells may hold no pointer, map, string or interface", typ.Field(i).Name, k)
		}
	}
	if typ.Size() != 24 {
		t.Errorf("Cell is %d bytes, want 24", typ.Size())
	}
}

// TestFrozenTokenizeRowAllocatesNothing: tokenizing a prediction input through
// a frozen tokenizer into a reused case touches no allocator — flat inputs and
// nested ones alike, known and unknown values, non-string values included.
func TestFrozenTokenizeRowAllocatesNothing(t *testing.T) {
	def := tableModelDef()
	def.Columns = append(def.Columns, ColumnDef{Name: "Zip", DataType: rowset.TypeLong, Content: ContentAttribute, AttrType: AttrDiscrete})
	train := paperCaseset(t)
	cols := append(append([]rowset.Column(nil), train.Schema().Columns...), rowset.Column{Name: "Zip", Type: rowset.TypeLong})
	schema := rowset.MustSchema(cols...)
	rs := rowset.New(schema)
	for i, r := range train.Rows() {
		mustAppend(rs, append(append(rowset.Row(nil), r...), int64(98000+i))...)
	}
	tk := NewTokenizer(def)
	if _, err := tk.Tokenize(rs); err != nil {
		t.Fatal(err)
	}
	frozen := *tk
	frozen.Freeze()
	cb, err := frozen.NewCaseBinder(BindByName(def.Columns, schema))
	if err != nil {
		t.Fatal(err)
	}
	basket := rowset.New(schema.Column(3).Nested)
	mustAppend(basket, "Beer", 2.0, "Beverage")
	mustAppend(basket, "Spaceship", 1.0, "Vehicle") // unseen key
	mustAppend(basket, "TV", nil, nil)
	cars := rowset.New(schema.Column(4).Nested)
	mustAppend(cars, "Van", 0.25)
	rows := map[string]rowset.Row{
		"flat":   {int64(7), "Female", 31.5, nil, nil, int64(98001)},
		"unseen": {int64(8), "Other", nil, nil, nil, int64(12345)},
		"nested": {int64(9), "Male", 40.0, basket, cars, int64(98000)},
	}
	var c Case
	for name, row := range rows {
		if err := cb.tokenizeRow(row, 0, &c, nil); err != nil { // grows the buffer once
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, func() { _ = cb.tokenizeRow(row, 0, &c, nil) }); n != 0 {
			t.Errorf("%s: %v allocations per frozen tokenizeRow, want 0", name, n)
		}
	}
	if err := cb.tokenizeRow(rows["nested"], 0, &c, nil); err != nil {
		t.Fatal(err)
	}
	van := mustLookup(t, tk.Space, "Car Ownership(Van)")
	qty := mustLookup(t, tk.Space, "Product Purchases(Beer).Quantity")
	if v, _ := c.Continuous(qty); v != 2 || c.ProbOf(van) != 0.25 || c.Discrete(mustLookup(t, tk.Space, "Zip")) != 0 || len(c.Cells()) != 7 {
		t.Errorf("nested case = %+v", c.Cells())
	}
	// A batch tokenizes in the arena's own spare room: into a fresh arena, it
	// allocates what sizing the arena's four slices does and nothing per row,
	// and makes the cases one row at a time makes.
	batch := []rowset.Row{rows["flat"], rows["nested"], rows["unseen"]}
	var cs Cases
	arena := testing.AllocsPerRun(100, func() {
		var a Cases
		a.Cells, a.Ends, a.Weights, a.Keys = slices.Grow(a.Cells, 1), slices.Grow(a.Ends, 1), slices.Grow(a.Weights, 1), slices.Grow(a.Keys, 1)
		cs = a
	})
	if n := testing.AllocsPerRun(100, func() { cs = Cases{}; _ = cb.TokenizeRows(t.Context(), nil, batch, &cs) }); n != arena {
		t.Errorf("%v allocations per TokenizeRows of %d rows, want the arena's %v", n, len(batch), arena)
	}
	cs = Cases{}
	if err := cb.TokenizeRows(t.Context(), nil, batch, &cs); err != nil {
		t.Fatal(err)
	}
	for i, row := range batch {
		if err := cb.tokenizeRow(row, 0, &c, nil); err != nil {
			t.Fatal(err)
		}
		if got := cs.Case(i).Cells(); !reflect.DeepEqual(got, c.Cells()) {
			t.Errorf("batch case %d = %+v, want %+v", i, got, c.Cells())
		}
	}
}

// TestStateDictionaryIsLinear: tokenizing a DISCRETE column of n distinct
// values looks each value up in a hashed dictionary, so the cost is linear in
// n. The dictionary used to be a scan of the states seen so far, which
// examines n²/2 entries. The test asserts what the code holds, not a clock, so
// it reads the same however busy the machine is: the dictionary has every
// state under its code, and a lookup answers from it, not from a scan of
// States — two labels swapped in the dictionary swap their cases' codes.
func TestStateDictionaryIsLinear(t *testing.T) {
	def := &ModelDef{Name: "hc", Algorithm: "x", Columns: []ColumnDef{
		{Name: "id", DataType: rowset.TypeLong, Content: ContentKey},
		{Name: "s", DataType: rowset.TypeText, Content: ContentAttribute, AttrType: AttrDiscrete},
		{Name: "n", DataType: rowset.TypeLong, Content: ContentAttribute, AttrType: AttrDiscrete},
	}}
	schema := rowset.MustSchema(
		rowset.Column{Name: "id", Type: rowset.TypeLong},
		rowset.Column{Name: "s", Type: rowset.TypeText},
		rowset.Column{Name: "n", Type: rowset.TypeLong},
	)
	const n = 30000
	rows := make([]rowset.Row, n)
	for i := range rows {
		rows[i] = rowset.Row{int64(i), fmt.Sprintf("state-%d", i), int64(i * 7)}
	}
	tk := NewTokenizer(def)
	cs, err := tk.Tokenize(rowset.Adopt(schema, rows))
	if err != nil {
		t.Fatal(err)
	}
	for idx := range 2 {
		a := tk.Space.Attr(idx)
		if len(a.States) != n || len(a.stateOf) != n || cs.Case(n-1).Discrete(idx) != n-1 {
			t.Fatalf("attribute %d: %d states, %d indexed, last case in state %d",
				idx, len(a.States), len(a.stateOf), cs.Case(n-1).Discrete(idx))
		}
		for k, s := range a.States {
			if code, ok := a.stateOf[s]; !ok || int(code) != k {
				t.Fatalf("attribute %d: state %d (%q) indexed as %d, %v", idx, k, s, code, ok)
			}
		}
		// Swap the first two states' codes in the dictionary only.
		a.stateOf[a.States[0]], a.stateOf[a.States[1]] = 1, 0
		if got := a.StateIndex(a.States[0]); got != 1 {
			t.Errorf("attribute %d: StateIndex(%q) = %d after the swap, want the dictionary's 1", idx, a.States[0], got)
		}
	}
	again, err := tk.Tokenize(rowset.Adopt(schema, rows[:2]))
	if err != nil {
		t.Fatal(err)
	}
	for idx := range 2 {
		if c0, c1 := again.Case(0).Discrete(idx), again.Case(1).Discrete(idx); c0 != 1 || c1 != 0 {
			t.Errorf("attribute %d: rows 0 and 1 coded %d and %d after the swap, want the dictionary's 1 and 0 (a scan of States gives 0 and 1)",
				idx, c0, c1)
		}
	}
}

// TestCasesAppendCloneAndSequences: the arena keeps cases apart, a clone does
// not share cells with its original, and the sparse sequence array lines up.
func TestCasesAppendCloneAndSequences(t *testing.T) {
	var cs Cases
	a, b, c := NewCase(), NewCase(), NewCase()
	a.Set(2, int64(1))
	a.Set(0, 3.5)
	b.Key, b.Weight = "k", 2
	c.Set(1, true)
	c.Sequences = []Sequence{{Table: "T", Keys: []string{"x", "y"}}}
	cs.Append(a)
	cs.Append(b)
	cs.Append(c)
	if cs.Len() != 3 || len(cs.Case(0).Cells()) != 2 || len(cs.Case(1).Cells()) != 0 || !cs.Case(2).Has(1) {
		t.Fatalf("arena = %+v", cs)
	}
	if cs.Case(1).Key != "k" || cs.Case(1).Weight != 2 || cs.Case(1).Sequences != nil {
		t.Errorf("case 1 = %+v", cs.Case(1))
	}
	if got := cs.Case(2).Sequence("T"); len(got) != 2 || cs.Case(0).Sequence("T") != nil {
		t.Errorf("sequences = %v", got)
	}
	clone := cs.Clone()
	clone.Cells[0].Num = 99
	clone.Append(NewCase())
	if v, _ := cs.Case(0).Continuous(0); v != 3.5 || cs.Len() != 3 {
		t.Errorf("clone shares state with its original: %v, len %d", v, cs.Len())
	}
	// A view cannot grow into its neighbour's cells.
	view := cs.Case(0)
	view.Set(7, int64(1))
	if cs.Case(2).Has(7) || !cs.Case(2).Has(1) {
		t.Error("writing through a case view overran the next case")
	}
}
