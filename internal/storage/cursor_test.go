package storage

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/rowset"
)

func TestTableCursorSnapshot(t *testing.T) {
	tbl := NewTable("t", testSchema())
	for i := 0; i < 5; i++ {
		if err := tbl.Insert(rowset.Row{int64(i), fmt.Sprintf("n%d", i), float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	c := tbl.Cursor()
	// Rows inserted after the cursor was taken are not visible to it.
	if err := tbl.Insert(rowset.Row{int64(99), "late", 99.0}); err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		r, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if r == nil {
			break
		}
		if r[0] != int64(n) {
			t.Fatalf("row %d: id = %v", n, r[0])
		}
		n++
	}
	if n != 5 {
		t.Fatalf("cursor saw %d rows, want the 5-row snapshot", n)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if r, _ := c.Next(); r != nil {
		t.Fatalf("Next after Close yielded %v", r)
	}
}

func TestLookupEqualRows(t *testing.T) {
	tbl := NewTable("t", testSchema())
	for i := 0; i < 100; i++ {
		if err := tbl.Insert(rowset.Row{int64(i), fmt.Sprintf("n%d", i%10), float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(label string) {
		t.Helper()
		rows, err := tbl.LookupEqualRows("name", "n3")
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 10 {
			t.Fatalf("%s: %d rows, want 10", label, len(rows))
		}
		// Insertion order is preserved either way.
		for i, r := range rows {
			if want := int64(i*10 + 3); r[0] != want {
				t.Fatalf("%s: row %d id = %v, want %d", label, i, r[0], want)
			}
		}
	}
	check("scan fallback")
	if tbl.HasIndex("name") {
		t.Fatal("HasIndex true before CreateIndex")
	}
	if err := tbl.CreateIndex("name"); err != nil {
		t.Fatal(err)
	}
	if !tbl.HasIndex("name") {
		t.Fatal("HasIndex false after CreateIndex")
	}
	check("indexed")

	if rows, err := tbl.LookupEqualRows("name", "absent"); err != nil || rows != nil {
		t.Fatalf("missing key: (%v, %v), want (nil, nil)", rows, err)
	}
	if _, err := tbl.LookupEqualRows("nosuch", int64(1)); err == nil {
		t.Fatal("unknown column must error")
	}
}

// TestGroups: one probe per key, answered as positions into the snapshot —
// insertion order within a group, a key repeated gets its rows again, LONG
// keys find DOUBLE rows, and NULL and absent keys get empty groups.
func TestGroups(t *testing.T) {
	tbl := NewTable("t", testSchema())
	for i, id := range []any{int64(1), int64(2), nil, int64(1), nil} {
		if err := tbl.Insert(rowset.Row{id, fmt.Sprint("n", i), float64(i % 2)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.Groups(t.Context(), "score", []rowset.Value{0.0}); err == nil {
		t.Fatal("Groups over an unindexed column must error")
	}
	if err := tbl.CreateIndex("score"); err != nil {
		t.Fatal(err)
	}
	g, err := tbl.Groups(t.Context(), "score", []rowset.Value{int64(1), nil, int64(7), 0.0, int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int32{{1, 3}, {}, {}, {0, 2, 4}, {1, 3}}
	for i, w := range want {
		lo, hi := g.Bounds(i)
		if got := g.Pos[lo:hi]; !slices.Equal(got, w) {
			t.Errorf("group %d = %v, want %v", i, got, w)
		}
	}
	if len(g.Base) != 5 || g.Base[3][1] != "n3" {
		t.Errorf("base = %v, want the table's rows", g.Base)
	}
	if err := tbl.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	if g, _ = tbl.Groups(t.Context(), "id", []rowset.Value{nil}); len(g.Pos) != 0 {
		t.Errorf("a NULL key matched the NULL-keyed rows %v", g.Pos)
	}
}

// TestGroupsOneSnapshot: every probe of one Groups call runs against the
// snapshot it returns, however fast rows arrive — no position points past it.
func TestGroupsOneSnapshot(t *testing.T) {
	tbl := NewTable("t", testSchema())
	if err := tbl.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	keys := make([]rowset.Value, 200)
	for i := range keys {
		keys[i] = int64(i % 3)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range 20000 {
			if err := tbl.Insert(rowset.Row{int64(i % 3), "x", 0.0}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for range 200 {
		g, err := tbl.Groups(t.Context(), "id", keys)
		if err != nil {
			t.Fatal(err)
		}
		for i := range keys {
			lo, hi := g.Bounds(i)
			if want := (len(g.Base) + 2 - i%3) / 3; hi-lo != want {
				t.Fatalf("key %v: %d rows of a %d-row snapshot, want %d", keys[i], hi-lo, len(g.Base), want)
			}
		}
	}
	<-done
}

// pollLimit is a context whose Err reports cancellation from its (n+1)th call
// on. Done is nil, so only code that polls Err notices.
type pollLimit struct {
	context.Context
	n int
}

func (c *pollLimit) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestGroupsPollsContext: a caller cancelled while its keys are being probed
// gets ctx.Err() back within rowset.DefaultBatchSize keys.
func TestGroupsPollsContext(t *testing.T) {
	tbl := NewTable("t", testSchema())
	if err := tbl.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	keys := make([]rowset.Value, 3*rowset.DefaultBatchSize)
	for i := range keys {
		keys[i] = int64(i)
	}
	for polls := range 3 {
		if _, err := tbl.Groups(&pollLimit{t.Context(), polls}, "id", keys); !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled at poll %d: err = %v, want context.Canceled", polls, err)
		}
	}
	if _, err := tbl.Groups(&pollLimit{t.Context(), 3}, "id", keys); err != nil {
		t.Errorf("three polls for %d keys: %v", len(keys), err)
	}
	if _, err := GroupRows(&pollLimit{t.Context(), 1}, tbl.Scan().Rows(), 0, rowset.TypeLong, keys); !errors.Is(err, context.Canceled) {
		t.Errorf("GroupRows cancelled at its second poll: err = %v", err)
	}
}

// BenchmarkPointLookup pins the acceptance claim that an indexed lookup does
// O(bucket) work instead of O(table): the same point query over tables of
// 1e3/1e4/1e5 rows must cost roughly the same with an index (bucket size is
// constant) while the unindexed scan grows linearly.
func BenchmarkPointLookup(b *testing.B) {
	for _, size := range []int{1_000, 10_000, 100_000} {
		tbl := NewTable("t", testSchema())
		rows := make([]rowset.Row, size)
		for i := range rows {
			rows[i] = rowset.Row{int64(i), fmt.Sprintf("n%d", i), float64(i)}
		}
		if err := tbl.InsertMany(rows); err != nil {
			b.Fatal(err)
		}
		target := int64(size / 2)
		b.Run(fmt.Sprintf("scan/rows=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, err := tbl.LookupEqualRows("id", target)
				if err != nil || len(got) != 1 {
					b.Fatalf("lookup: %v (%d rows)", err, len(got))
				}
			}
		})
		if err := tbl.CreateIndex("id"); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("indexed/rows=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, err := tbl.LookupEqualRows("id", target)
				if err != nil || len(got) != 1 {
					b.Fatalf("lookup: %v (%d rows)", err, len(got))
				}
			}
		})
	}
}

// BenchmarkGroups is a SHAPE RELATE's probe of a stored child table: Groups
// of 50 000 LONG keys against the index of a 156 000-row table, each key
// matching about three rows scattered through it.
func BenchmarkGroups(b *testing.B) {
	const parents, children = 50_000, 156_000
	tbl := NewTable("t", testSchema())
	rng := rand.New(rand.NewSource(1))
	rows := make([]rowset.Row, children)
	for i := range rows {
		rows[i] = rowset.Row{int64(1 + rng.Intn(parents)), "x", float64(i)}
	}
	if err := tbl.InsertMany(rows); err != nil {
		b.Fatal(err)
	}
	if err := tbl.CreateIndex("id"); err != nil {
		b.Fatal(err)
	}
	keys := make([]rowset.Value, parents)
	for i := range keys {
		keys[i] = int64(i + 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := tbl.Groups(context.Background(), "id", keys)
		if err != nil || len(g.Pos) != children {
			b.Fatalf("Groups: %v (%d rows)", err, len(g.Pos))
		}
	}
}

// keyEqual is rowset.Key equality, the equality an index must keep.
func keyEqual(a, b rowset.Value) bool {
	return string(rowset.AppendKey(nil, a)) == string(rowset.AppendKey(nil, b))
}

// checkProbes probes column col of tbl (rows: its contents) with every key of
// probes, through Groups and through LookupEqualRows, and wants
// exactly the rows whose value is Key-equal to the probe; NULL matches
// nothing in Groups.
func checkProbes(t *testing.T, what string, g rowset.Groups, rows []rowset.Row, ord int, probes []rowset.Value, lookup func(rowset.Value) ([]rowset.Row, error)) {
	t.Helper()
	for i, k := range probes {
		var want []int32
		for pos, r := range rows {
			if k != nil && keyEqual(r[ord], k) {
				want = append(want, int32(pos))
			}
		}
		lo, hi := g.Bounds(i)
		if got := g.Pos[lo:hi]; !slices.Equal(got, want) {
			t.Errorf("%s: Groups(%#v) = %v, want %v", what, k, got, want)
		}
		if lookup == nil || k == nil {
			continue
		}
		got, err := lookup(k)
		if err != nil || len(got) != len(want) {
			t.Errorf("%s: LookupEqualRows(%#v) = %d rows (%v), want %d", what, k, len(got), err, len(want))
		}
	}
}

// TestIndexKeyEquality: an index keyed by its column's declared type finds
// exactly the rows rowset.Key equality finds, whatever type a probe has: a
// LONG index probed with DOUBLE keys (±0, 2^53 and its neighbours), a DOUBLE
// one probed with LONGs, before and after Replace and Truncate, and rows of
// a LONG column that hold a value no number equals.
func TestIndexKeyEquality(t *testing.T) {
	const two53 = int64(rowset.MaxExactLong)
	probes := []rowset.Value{int64(0), 0.0, math.Copysign(0, -1), int64(1), 1.0, 1.5, two53, float64(two53),
		two53 + 1, float64(two53 + 1), -two53 - 1, math.NaN(), nil, "1"}
	ids := []rowset.Value{int64(0), int64(1), two53, two53 + 1, -two53 - 1, nil, int64(1)}
	scores := []rowset.Value{0.0, math.Copysign(0, -1), 1.0, float64(two53), math.NaN(), nil, 1.5}
	fill := func(n int) []rowset.Row {
		rows := make([]rowset.Row, n)
		for i := range rows {
			rows[i] = rowset.Row{ids[i%len(ids)], "x", scores[i%len(scores)]}
		}
		return rows
	}
	tbl := NewTable("t", testSchema())
	if err := tbl.InsertMany(fill(20)); err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"id", "score"} {
		if err := tbl.CreateIndex(col); err != nil {
			t.Fatal(err)
		}
	}
	check := func(what string) {
		for ord, col := range map[int]string{0: "id", 2: "score"} {
			g, err := tbl.Groups(t.Context(), col, probes)
			if err != nil {
				t.Fatal(err)
			}
			checkProbes(t, what+" "+col, g, tbl.Snapshot(), ord, probes, func(k rowset.Value) ([]rowset.Row, error) {
				return tbl.LookupEqualRows(col, k)
			})
		}
	}
	check("inserted")
	if err := tbl.Replace(fill(9)[3:]); err != nil {
		t.Fatal(err)
	}
	check("replaced")
	tbl.Truncate()
	check("truncated")
	if err := tbl.InsertMany(fill(7)); err != nil {
		t.Fatal(err)
	}
	check("refilled")

	// A query's LONG column may hold TEXT: the index rekeys by Key bytes.
	rows := fill(10)
	rows[4][0] = "1"
	g, err := GroupRows(t.Context(), rows, 0, rowset.TypeLong, probes)
	if err != nil {
		t.Fatal(err)
	}
	checkProbes(t, "mixed LONG column", g, rows, 0, probes, nil)
}
