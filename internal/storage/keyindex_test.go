package storage

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"repro/internal/rowset"
)

// checkKeyIndex fails unless x indexes exactly rows by column ord: every
// non-NULL row under its key, the rows of a key in row order, a NULL under
// none.
func checkKeyIndex(t *testing.T, what string, x *KeyIndex, rows []rowset.Row, ord int) {
	t.Helper()
	if len(x.Rows) != len(rows) {
		t.Errorf("%s: index covers %d rows, want %d", what, len(x.Rows), len(rows))
		return
	}
	want := make(map[string][]int32)
	keyed := 0
	for i, r := range rows {
		if r[ord] != nil {
			k := rowset.Key(r[ord])
			want[k] = append(want[k], int32(i))
			keyed++
		}
	}
	if len(x.pos) != keyed {
		t.Errorf("%s: index holds %d positions, want the %d non-NULL rows", what, len(x.pos), keyed)
	}
	for _, r := range rows {
		if v := r[ord]; v != nil && !slices.Equal(x.Lookup(v), want[rowset.Key(v)]) {
			t.Errorf("%s: Lookup(%v) = %v, want %v", what, v, x.Lookup(v), want[rowset.Key(v)])
			return
		}
	}
	if got := x.Lookup(nil); got != nil {
		t.Errorf("%s: a NULL found rows %v", what, got)
	}
}

func keyedRows(n int) []rowset.Row {
	rows := make([]rowset.Row, n)
	for i := range rows {
		var id rowset.Value = int64(i % 7)
		if i%11 == 0 {
			id = nil
		}
		rows[i] = rowset.Row{id, string(rune('a' + i%5)), float64(i%4) / 2}
	}
	return rows
}

// TestKeyIndexOncePerVersion: a table builds a column's key index once per
// data version and hands the same index out until a write; after Insert,
// InsertMany, Replace and Truncate the cache is empty at once — no index
// pins the old snapshot — and the next call builds over the new rows.
func TestKeyIndexOncePerVersion(t *testing.T) {
	tbl := NewTable("t", testSchema())
	if err := tbl.InsertMany(keyedRows(100)); err != nil {
		t.Fatal(err)
	}
	get := func(what string, wantBuilt bool) *KeyIndex {
		t.Helper()
		x, built, err := tbl.KeyIndex(t.Context(), 0, rowset.KeyLong)
		if err != nil {
			t.Fatal(err)
		}
		if built != wantBuilt {
			t.Errorf("%s: built = %v, want %v", what, built, wantBuilt)
		}
		checkKeyIndex(t, what, x, tbl.Snapshot(), 0)
		return x
	}
	x := get("first call", true)
	if y := get("second call", false); y != x {
		t.Error("second call at one version returned another index")
	}
	for _, w := range []struct {
		what  string
		write func() error
	}{
		{"Insert", func() error { return tbl.Insert(rowset.Row{int64(3), "z", 1.0}) }},
		{"InsertMany", func() error { return tbl.InsertMany(keyedRows(30)) }},
		{"Replace", func() error { return tbl.Replace(keyedRows(120)[40:]) }},
		{"Truncate", func() error { tbl.Truncate(); return nil }},
		{"refill", func() error { return tbl.InsertMany(keyedRows(9)) }},
	} {
		if err := w.write(); err != nil {
			t.Fatal(err)
		}
		if tbl.keyIdx.Load() != nil || tbl.CachedKeyIndex(0, rowset.KeyLong) != nil {
			t.Errorf("after %s: the old version's index is still cached", w.what)
		}
		get("after "+w.what, true)
		get("again after "+w.what, false)
	}
}

// TestKeyIndexPerColumnAndKind: one column keyed LONG = LONG and LONG =
// DOUBLE gets two indexes, and another column a third; each is built once
// and then reused.
func TestKeyIndexPerColumnAndKind(t *testing.T) {
	tbl := NewTable("t", testSchema())
	if err := tbl.InsertMany(keyedRows(50)); err != nil {
		t.Fatal(err)
	}
	type key struct {
		ord  int
		kind rowset.KeyKind
	}
	keys := []key{{0, rowset.KeyLong}, {0, rowset.KeyFloat}, {2, rowset.KeyFloat}, {1, rowset.KeyText}}
	seen := make(map[key]*KeyIndex)
	for round := range 2 {
		for _, k := range keys {
			x, built, err := tbl.KeyIndex(t.Context(), k.ord, k.kind)
			if err != nil {
				t.Fatal(err)
			}
			if built != (round == 0) {
				t.Errorf("round %d, column %d kind %d: built = %v", round, k.ord, k.kind, built)
			}
			checkKeyIndex(t, "column", x, tbl.Snapshot(), k.ord)
			if round == 0 {
				for o, y := range seen {
					if y == x {
						t.Errorf("column %d kind %d shares the index of column %d kind %d", k.ord, k.kind, o.ord, o.kind)
					}
				}
				seen[k] = x
			} else if seen[k] != x {
				t.Errorf("column %d kind %d: the second round got another index", k.ord, k.kind)
			}
		}
	}
}

// TestKeyIndexCancelledCachesNothing: a build under a cancelled context fails
// with its error and publishes nothing, numeric and TEXT keys alike, and
// leaves an index cached before it in place.
func TestKeyIndexCancelledCachesNothing(t *testing.T) {
	tbl := NewTable("t", testSchema())
	if err := tbl.InsertMany(keyedRows(100)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	for _, k := range []struct {
		ord  int
		kind rowset.KeyKind
	}{{0, rowset.KeyLong}, {1, rowset.KeyText}} {
		if _, _, err := tbl.KeyIndex(ctx, k.ord, k.kind); !errors.Is(err, context.Canceled) {
			t.Errorf("kind %d: err = %v, want context.Canceled", k.kind, err)
		}
		if tbl.keyIdx.Load() != nil {
			t.Errorf("kind %d: a cancelled build was cached", k.kind)
		}
	}
	x, _, err := tbl.KeyIndex(t.Context(), 2, rowset.KeyFloat)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tbl.KeyIndex(ctx, 1, rowset.KeyText); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if tbl.CachedKeyIndex(1, rowset.KeyText) != nil || tbl.CachedKeyIndex(2, rowset.KeyFloat) != x {
		t.Error("a cancelled build changed what is cached")
	}
}

// TestKeyIndexBesideInserts: indexes asked for while rows arrive each cover
// one consistent snapshot, never shrink, and the last one covers every row.
func TestKeyIndexBesideInserts(t *testing.T) {
	tbl := NewTable("t", testSchema())
	rows := keyedRows(2000)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, r := range rows {
			if err := tbl.Insert(r); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for range 100 {
				x, _, err := tbl.KeyIndex(t.Context(), 0, rowset.KeyLong)
				if err != nil {
					t.Error(err)
					return
				}
				if len(x.Rows) < last {
					t.Errorf("an index covers %d rows after one covered %d", len(x.Rows), last)
				}
				last = len(x.Rows)
				checkKeyIndex(t, "beside inserts", x, x.Rows, 0)
			}
		}()
	}
	wg.Wait()
	x, _, err := tbl.KeyIndex(t.Context(), 0, rowset.KeyLong)
	if err != nil {
		t.Fatal(err)
	}
	checkKeyIndex(t, "after the inserts", x, rows, 0)
}

// TestCreateIndexDeclares: CreateIndex only declares the column indexed. The
// first probe builds its key index, and later probes, Groups among them, read
// the same one; its estimate is rows over distinct values, NULL counting as
// one.
func TestCreateIndexDeclares(t *testing.T) {
	tbl := NewTable("t", testSchema())
	if err := tbl.InsertMany(keyedRows(100)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	if !tbl.HasIndex("id") || tbl.keyIdx.Load() != nil {
		t.Fatal("CreateIndex built a key index")
	}
	if rows, err := tbl.LookupEqualRows("id", int64(3)); err != nil || len(rows) != 13 {
		t.Fatalf("LookupEqualRows(id, 3) = %d rows (%v), want 13", len(rows), err)
	}
	x := tbl.CachedKeyIndex(0, rowset.KeyLong)
	if x == nil {
		t.Fatal("the probe cached no key index")
	}
	if g, err := tbl.Groups(t.Context(), "id", []rowset.Value{int64(3)}); err != nil || len(g.Pos) != 13 {
		t.Fatalf("Groups(id, 3) = %d rows (%v), want 13", len(g.Pos), err)
	}
	if tbl.CachedKeyIndex(0, rowset.KeyLong) != x {
		t.Error("Groups built another index at the same version")
	}
	// Seven ids and NULL over 100 rows.
	if e := x.EqEstimate(); e != 100/8 {
		t.Errorf("EqEstimate = %d, want %d", e, 100/8)
	}
}
