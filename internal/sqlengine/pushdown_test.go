package sqlengine

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/rowset"
	"repro/internal/storage"
)

func pushScans(t *testing.T, e *Engine, refs ...TableRef) []*compiledScan {
	t.Helper()
	scans := make([]*compiledScan, len(refs))
	for i, ref := range refs {
		cs, err := e.resolveScan(context.Background(), ref)
		if err != nil {
			t.Fatalf("resolveScan(%s): %v", ref.Name, err)
		}
		scans[i] = cs
	}
	return scans
}

// push runs planPushdown over scans and returns the residual.
func push(t *testing.T, where Expr, scans []*compiledScan) Expr {
	t.Helper()
	res, err := planPushdown(t.Context(), where, scans)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func eq(l, r Expr) Expr  { return &Binary{Op: OpEq, L: l, R: r} }
func and(l, r Expr) Expr { return &Binary{Op: OpAnd, L: l, R: r} }
func col(q, n string) Expr {
	return &ColumnRef{Qualifier: q, Name: n}
}
func lit(v rowset.Value) Expr { return &Literal{Val: v} }

// TestPushdownApplies covers the shapes that must reach the index: a bare
// equality, either operand order, and the pushed conjunct being removed from
// the residual while the rest of the conjunction survives.
func TestPushdownApplies(t *testing.T) {
	e := differentialDB(t)

	scans := pushScans(t, e, TableRef{Name: "C"})
	res := push(t, eq(col("", "city"), lit("rome")), scans)
	if res != nil {
		t.Errorf("residual = %v, want nil", res)
	}
	if p := scans[0].pushed; p == nil || p.col != "city" || p.val != "rome" {
		t.Errorf("pushed = %+v, want city=rome", scans[0].pushed)
	}

	// Literal on the left, plus a residual conjunct.
	scans = pushScans(t, e, TableRef{Name: "C"})
	rest := &Binary{Op: OpGt, L: col("", "age"), R: lit(int64(30))}
	res = push(t, and(eq(lit("oslo"), col("", "city")), rest), scans)
	if scans[0].pushed == nil || scans[0].pushed.val != "oslo" {
		t.Errorf("pushed = %+v, want city=oslo", scans[0].pushed)
	}
	if res != rest {
		t.Errorf("residual = %v, want the age conjunct", res)
	}

	// A second equality on the same scan stays in the residual: one probe
	// per scan.
	scans = pushScans(t, e, TableRef{Name: "C"})
	res = push(t, and(eq(col("", "city"), lit("rome")), eq(col("", "city"), lit("oslo"))), scans)
	if scans[0].pushed == nil || res == nil {
		t.Errorf("pushed = %+v residual = %v, want one pushed + one residual", scans[0].pushed, res)
	}

	// Inner-join right side is eligible.
	scans = pushScans(t, e, TableRef{Name: "C"}, TableRef{Name: "O", Kind: JoinInner,
		On: eq(col("C", "id"), col("O", "cid"))})
	res = push(t, eq(col("O", "cid"), lit(int64(3))), scans)
	if res != nil || scans[1].pushed == nil || scans[1].pushed.col != "cid" {
		t.Errorf("inner-join right side: residual = %v pushed = %+v", res, scans[1].pushed)
	}
}

// TestPushdownRefusals covers every soundness rule in planPushdown: each
// refused shape must leave the scan unpushed and the predicate intact for the
// filter operator (or its error reporting).
func TestPushdownRefusals(t *testing.T) {
	e := differentialDB(t)
	cases := []struct {
		name  string
		refs  []TableRef
		where Expr
	}{
		{"or-not-a-conjunct", []TableRef{{Name: "C"}},
			&Binary{Op: OpOr, L: eq(col("", "city"), lit("rome")), R: eq(col("", "city"), lit("oslo"))}},
		{"non-equality", []TableRef{{Name: "C"}},
			&Binary{Op: OpGt, L: col("", "city"), R: lit("rome")}},
		{"null-literal", []TableRef{{Name: "C"}}, eq(col("", "city"), lit(nil))},
		{"column-to-column", []TableRef{{Name: "C"}}, eq(col("", "city"), col("", "name"))},
		{"no-index", []TableRef{{Name: "C"}}, eq(col("", "name"), lit("n01"))},
		{"type-family-mismatch", []TableRef{{Name: "C"}}, eq(col("", "city"), lit(int64(3)))},
		{"unknown-column", []TableRef{{Name: "C"}}, eq(col("", "bogus"), lit("rome"))},
		{"view-source", []TableRef{{Name: "V"}}, eq(col("", "city"), lit("rome"))},
		{"ambiguous-self-join", []TableRef{{Name: "C", Alias: "a"}, {Name: "C", Alias: "b", Kind: JoinCross}},
			eq(col("", "city"), lit("rome"))},
		{"left-join-null-side", []TableRef{{Name: "C"}, {Name: "O", Kind: JoinLeft,
			On: eq(col("C", "id"), col("O", "cid"))}},
			eq(col("O", "cid"), lit(int64(3)))},
	}
	for _, tc := range cases {
		scans := pushScans(t, e, tc.refs...)
		res := push(t, tc.where, scans)
		for i, cs := range scans {
			if cs.pushed != nil {
				t.Errorf("%s: scan %d pushed %+v, want refusal", tc.name, i, cs.pushed)
			}
		}
		if res == nil {
			t.Errorf("%s: residual is nil, want predicate preserved", tc.name)
		}
	}
}

// TestIndexableEq pins the type-family matrix, DATE refusal in particular:
// index buckets key dates at nanosecond precision while Compare collapses to
// seconds, so a date probe could miss rows a post-scan filter would keep.
func TestIndexableEq(t *testing.T) {
	now := time.Now()
	cases := []struct {
		ct   rowset.Type
		v    rowset.Value
		want bool
	}{
		{rowset.TypeLong, int64(3), true},
		{rowset.TypeLong, 3.5, true},
		{rowset.TypeDouble, int64(3), true},
		{rowset.TypeDouble, 3.5, true},
		{rowset.TypeLong, int64(rowset.MaxExactLong + 1), true},
		{rowset.TypeLong, float64(rowset.MaxExactLong), false}, // 2^53+1 rounds to it
		{rowset.TypeDouble, int64(rowset.MaxExactLong), true},
		{rowset.TypeDouble, int64(rowset.MaxExactLong + 1), false},
		{rowset.TypeText, "x", true},
		{rowset.TypeBool, true, true},
		{rowset.TypeText, int64(3), false},
		{rowset.TypeLong, "3", false},
		{rowset.TypeBool, int64(1), false},
		{rowset.TypeDate, now, false},
		{rowset.TypeDate, "2020-01-01", false},
		{rowset.TypeNull, "x", false},
	}
	for _, tc := range cases {
		if got := indexableEq(tc.ct, tc.v); got != tc.want {
			t.Errorf("indexableEq(%v, %v (%T)) = %v, want %v", tc.ct, tc.v, tc.v, got, tc.want)
		}
	}
}

// skewedJoinTables builds a tiny table and a big one sharing a key domain.
func skewedJoinTables(b *testing.B, small, big int) *Engine {
	b.Helper()
	db := storage.NewDatabase()
	e := NewEngine(db)
	if _, err := e.Exec("CREATE TABLE S (k LONG, tag TEXT)"); err != nil {
		b.Fatal(err)
	}
	if _, err := e.Exec("CREATE TABLE B (k LONG, payload TEXT)"); err != nil {
		b.Fatal(err)
	}
	st, _ := db.Table("S")
	bt, _ := db.Table("B")
	for i := 0; i < small; i++ {
		if err := st.Insert(rowset.Row{int64(i), fmt.Sprintf("t%d", i)}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < big; i++ {
		// Keys span 4x the small table's domain: 3 of 4 big rows match
		// nothing.
		if err := bt.Insert(rowset.Row{int64(i % (small * 4)), fmt.Sprintf("p%d", i)}); err != nil {
			b.Fatal(err)
		}
	}
	return e
}

// BenchmarkSkewedJoinSQL joins 8 rows against 20000 through the full SQL
// pipeline, the small table on the left: the probe side is tiny and the index
// covers the big table.
func BenchmarkSkewedJoinSQL(b *testing.B) {
	const big = 20000
	e := skewedJoinTables(b, 8, big)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := e.Exec("SELECT S.tag, B.payload FROM S JOIN B ON S.k = B.k")
		if err != nil {
			b.Fatal(err)
		}
		if rs.Len() != big/4 {
			b.Fatalf("join yielded %d rows, want %d", rs.Len(), big/4)
		}
	}
}
