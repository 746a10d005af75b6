package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/par"
	"repro/internal/rowset"
)

// genDef is the model of genCaseset: a discrete column with a relation on it,
// a DISCRETIZED column, and a nested table with LONG keys, a continuous and a
// discrete valued column, a qualifier, a relation and a SEQUENCE_TIME.
func genDef() *ModelDef {
	return &ModelDef{Name: "gen", Algorithm: "x", Columns: []ColumnDef{
		{Name: "id", DataType: rowset.TypeLong, Content: ContentKey},
		{Name: "s", DataType: rowset.TypeText, Content: ContentAttribute, AttrType: AttrDiscrete},
		{Name: "grp", DataType: rowset.TypeText, Content: ContentRelation, RelatedTo: "s"},
		{Name: "v", DataType: rowset.TypeDouble, Content: ContentAttribute, AttrType: AttrDiscretized, Predict: true},
		{Name: "Basket", Content: ContentTable, Table: []ColumnDef{
			{Name: "item", DataType: rowset.TypeLong, Content: ContentKey},
			{Name: "qty", DataType: rowset.TypeDouble, Content: ContentAttribute, AttrType: AttrContinuous},
			{Name: "color", DataType: rowset.TypeText, Content: ContentAttribute, AttrType: AttrDiscrete},
			{Name: "sure", DataType: rowset.TypeDouble, Content: ContentQualifier, Qualifier: QualProbability, QualifierOf: "color"},
			{Name: "kind", DataType: rowset.TypeText, Content: ContentRelation, RelatedTo: "item"},
			{Name: "at", DataType: rowset.TypeDouble, Content: ContentAttribute, AttrType: AttrSequenceTime},
		}},
	}}
}

// genCaseset generates n cases whose unseen states and nested keys keep
// turning up in later ranges: state s grows every 700 rows, nested items and
// colors widen with the row number. Some nested keys are NULL, some repeat
// within a case, and case 1024 — the first of the second range — has a NaN v.
// It returns the rows with each basket as a *rowset.Rowset cell, and the same
// baskets kept apart as groups over one child table.
func genCaseset(n int) (*rowset.Schema, []rowset.Row, rowset.Groups) {
	nested := rowset.MustSchema(
		rowset.Column{Name: "item", Type: rowset.TypeLong},
		rowset.Column{Name: "qty", Type: rowset.TypeDouble},
		rowset.Column{Name: "color", Type: rowset.TypeText},
		rowset.Column{Name: "sure", Type: rowset.TypeDouble},
		rowset.Column{Name: "kind", Type: rowset.TypeText},
		rowset.Column{Name: "at", Type: rowset.TypeDouble},
	)
	schema := rowset.MustSchema(
		rowset.Column{Name: "id", Type: rowset.TypeLong},
		rowset.Column{Name: "s", Type: rowset.TypeText},
		rowset.Column{Name: "grp", Type: rowset.TypeText},
		rowset.Column{Name: "v", Type: rowset.TypeDouble},
		rowset.Column{Name: "Basket", Type: rowset.TypeTable, Nested: nested},
	)
	rows := make([]rowset.Row, n)
	var g rowset.Groups
	for i := range rows {
		v := rowset.Value(float64(i % 97))
		if i == tokenizeRange {
			v = math.NaN()
		}
		basket := rowset.New(nested)
		for j := range i % 5 {
			var item rowset.Value = int64((i*7 + j*13) % (20 + i/40))
			switch {
			case j == 3 && i%11 == 0:
				item = nil
			case j == 2 && i%5 == 0:
				item = basket.Row(0)[0] // the case's first key again
			}
			var qty rowset.Value = float64(j)
			if i%13 == 0 {
				qty = nil
			}
			row := rowset.Row{item, qty, fmt.Sprint("c", (i+j)%(3+i/500)), 0.5, fmt.Sprint("k", (i+j)%4), float64((i*3 + j*7) % 11)}
			if err := basket.Append(row); err != nil {
				panic(err)
			}
			g.Pos = append(g.Pos, int32(len(g.Base)))
			g.Base = append(g.Base, basket.Row(basket.Len()-1))
		}
		g.Ends = append(g.Ends, int32(len(g.Pos)))
		rows[i] = rowset.Row{int64(i), fmt.Sprint("s", i/700), fmt.Sprint("g", i%3), v, basket}
	}
	return schema, rows, g
}

// tokenizeAt tokenizes rows into a fresh space on workers goroutines (0: one
// row per TokenizeRows call, the front-to-back reference) and discretizes v.
func tokenizeAt(t *testing.T, def *ModelDef, cols []ColumnSource, rows []rowset.Row, workers int) (*Caseset, error) {
	t.Helper()
	tk := NewTokenizer(def)
	cs := &Caseset{Space: tk.Space}
	var forks *par.Forks
	if workers > 0 {
		forks = par.NewForks(workers)
	}
	cb, err := tk.NewCaseBinder(cols)
	if err != nil {
		t.Fatal(err)
	}
	// Rows carrying their baskets go in two calls, as two INSERTs into one
	// model make them; kept-apart groups are numbered from the first row.
	split := len(rows) / 3
	if slices.ContainsFunc(cols, func(c ColumnSource) bool { return c.Rows != nil }) {
		split = 0
	}
	if workers > 0 {
		if err = cb.TokenizeRows(t.Context(), forks, rows[:split], &cs.Cases); err == nil {
			err = cb.TokenizeRows(t.Context(), forks, rows[split:], &cs.Cases)
		}
	}
	for i := 0; workers == 0 && i < len(rows) && err == nil; i++ {
		err = cb.TokenizeRows(t.Context(), nil, rows[i:i+1], &cs.Cases)
	}
	if err != nil {
		return cs, err
	}
	v, _ := tk.Space.Lookup("v")
	return cs, cs.Discretize(t.Context(), forks, v, func([]float64) ([]float64, error) { return []float64{20, 50}, nil })
}

// sameCases compares two arenas as printed, so that a NaN equals a NaN.
func sameCases(a, b *Cases) bool {
	return fmt.Sprint(a.Cells, a.Ends, a.Weights, a.Keys, a.Seqs) == fmt.Sprint(b.Cells, b.Ends, b.Weights, b.Keys, b.Seqs)
}

// TestTokenizeDeterministic: a training tokenize and discretize mint the same
// space — names, ordinals, state order, cuts, Lo/Hi and relations — and the
// same cases at 1, 2 and 8 workers as one row at a time does, with the
// baskets as nested rowsets or kept apart as groups.
func TestTokenizeDeterministic(t *testing.T) {
	def := genDef()
	if err := def.Validate(); err != nil {
		t.Fatal(err)
	}
	schema, rows, g := genCaseset(20*tokenizeRange + 300)
	ref, err := tokenizeAt(t, def, BindByName(def.Columns, schema), rows, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%#v\n%#v", ref.Space.Attrs, ref.Space.Relations)
	v := ref.Space.Attr(mustLookup(t, ref.Space, "v"))
	if math.IsNaN(v.Lo) || v.Lo != 0 || v.Hi != 96 {
		t.Errorf("v ranges over [%v, %v], want [0, 96]", v.Lo, v.Hi)
	}
	for _, kept := range []bool{false, true} {
		cols := BindByName(def.Columns, schema)
		if kept {
			cols[4].Rows = &g
		}
		for _, w := range []int{1, 2, 8} {
			cs, err := tokenizeAt(t, def, cols, rows, w)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%#v\n%#v", cs.Space.Attrs, cs.Space.Relations); got != want {
				t.Errorf("groups %v, %d workers: the space differs from one row at a time", kept, w)
			}
			if !sameCases(&cs.Cases, &ref.Cases) {
				t.Errorf("groups %v, %d workers: the cases differ from one row at a time", kept, w)
			}
		}
	}
}

// TestTokenizeErrorContract: a row that fails — a NULL in a NOT_NULL column, a
// non-numeric DISCRETIZED value, a nested column that holds no table — fails
// every worker count with the error one row at a time meets, and leaves out
// holding exactly the cases before it.
func TestTokenizeErrorContract(t *testing.T) {
	for name, spoil := range map[string]func(def *ModelDef, row rowset.Row){
		"not null":    func(def *ModelDef, row rowset.Row) { def.Columns[1].NotNull = true; row[1] = nil },
		"non-numeric": func(_ *ModelDef, row rowset.Row) { row[3] = "high" },
		"no table":    func(_ *ModelDef, row rowset.Row) { row[4] = "a basket" },
	} {
		// In the first range, which runs alone, and in a later one.
		for _, k := range []int{77, 2*tokenizeRange + 77} {
			testTokenizeError(t, name, spoil, k)
		}
	}
}

// testTokenizeError spoils row k of a generated caseset and compares every
// worker count with one row at a time.
func testTokenizeError(t *testing.T, name string, spoil func(*ModelDef, rowset.Row), k int) {
	t.Helper()
	def := genDef()
	schema, rows, _ := genCaseset(4 * tokenizeRange)
	spoil(def, rows[k])
	cols := BindByName(def.Columns, schema)
	ref, want := tokenizeAt(t, def, cols, rows, 0)
	if want == nil || ref.Len() != k {
		t.Fatalf("%s at row %d: one row at a time: %d cases, err %v", name, k, ref.Len(), want)
	}
	for _, w := range []int{1, 2, 8} {
		cs, err := tokenizeAt(t, def, cols, rows, w)
		if err == nil || err.Error() != want.Error() || reflect.TypeOf(err) != reflect.TypeOf(want) {
			t.Errorf("%s at row %d, %d workers: err %v, want %v", name, k, w, err, want)
		}
		var nte *NestedColumnTypeError
		if name == "no table" && !errors.As(err, &nte) {
			t.Errorf("%s at row %d, %d workers: err %T, want *NestedColumnTypeError", name, k, w, err)
		}
		if !sameCases(&cs.Cases, &ref.Cases) {
			t.Errorf("%s at row %d, %d workers: %d cases, want the %d before it", name, k, w, cs.Len(), k)
		}
	}
}
