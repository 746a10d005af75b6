package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
	"unsafe"

	"repro/internal/rowset"
)

func TestMorselRanges(t *testing.T) {
	cases := []struct {
		n, size int
		want    []Morsel
	}{
		{0, 10, nil},
		{-3, 10, nil},
		{5, 10, []Morsel{{0, 5}}},
		{10, 5, []Morsel{{0, 5}, {5, 10}}},
		{11, 5, []Morsel{{0, 5}, {5, 10}, {10, 11}}},
	}
	for _, c := range cases {
		got := MorselRanges(c.n, c.size)
		if len(got) != len(c.want) {
			t.Fatalf("MorselRanges(%d, %d) = %v, want %v", c.n, c.size, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("MorselRanges(%d, %d)[%d] = %v, want %v", c.n, c.size, i, got[i], c.want[i])
			}
		}
	}
	// Default size kicks in for size <= 0 and partitions the full range.
	ms := MorselRanges(DefaultMorselSize+1, 0)
	if len(ms) != 2 || ms[0].Hi != DefaultMorselSize || ms[1] != (Morsel{DefaultMorselSize, DefaultMorselSize + 1}) {
		t.Fatalf("default-size morsels wrong: %v", ms)
	}
}

func TestSnapshotIsPointInTime(t *testing.T) {
	tbl := NewTable("T", rowset.MustSchema(rowset.Column{Name: "A", Type: rowset.TypeLong}))
	for i := 0; i < 4; i++ {
		if err := tbl.Insert(rowset.Row{int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	snap := tbl.Snapshot()
	if err := tbl.Insert(rowset.Row{int64(99)}); err != nil {
		t.Fatal(err)
	}
	if len(snap) != 4 {
		t.Fatalf("snapshot grew after insert: %d rows", len(snap))
	}
	if err := tbl.Replace(nil); err != nil {
		t.Fatal(err)
	}
	if len(snap) != 4 || rowset.Compare(snap[3][0], int64(3)) != 0 {
		t.Fatalf("snapshot changed after Replace: %v", snap)
	}
}

func TestTableCursorNextBatch(t *testing.T) {
	tbl := NewTable("T", rowset.MustSchema(rowset.Column{Name: "A", Type: rowset.TypeLong}))
	n := rowset.DefaultBatchSize + 7
	for i := 0; i < n; i++ {
		if err := tbl.Insert(rowset.Row{int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	bc, ok := tbl.Cursor().(rowset.BatchCursor)
	if !ok {
		t.Fatal("the table cursor does not produce batches")
	}
	snap := tbl.Snapshot()
	total, batches := 0, 0
	for {
		b, err := bc.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b.Empty() {
			break
		}
		if b.Sel != nil {
			t.Fatal("table scan batch should have nil Sel")
		}
		// Zero-copy: batch rows alias the snapshot.
		if &b.Rows[0][0] != &snap[total][0] {
			t.Fatalf("batch %d is not a view of the table snapshot", batches)
		}
		total += b.Len()
		batches++
	}
	if total != n || batches != 2 {
		t.Fatalf("drained %d rows in %d batches, want %d in 2", total, batches, n)
	}
	if err := bc.Close(); err != nil {
		t.Fatal(err)
	}
	if b, err := bc.NextBatch(); err != nil || !b.Empty() {
		t.Fatalf("NextBatch after Close = %d rows, err %v", b.Len(), err)
	}
}

// chunkSchema has one column of each stored kind the chunks hold.
func chunkSchema() *rowset.Schema {
	return rowset.MustSchema(
		rowset.Column{Name: "ID", Type: rowset.TypeLong},
		rowset.Column{Name: "Name", Type: rowset.TypeText},
		rowset.Column{Name: "Day", Type: rowset.TypeDate},
		rowset.Column{Name: "Score", Type: rowset.TypeDouble},
	)
}

var day0 = time.Date(2001, 4, 2, 9, 30, 0, 0, time.FixedZone("CEST", 2*3600))

func chunkRow(i int) rowset.Row {
	return rowset.Row{int64(i), fmt.Sprintf("name%d", i%7), day0.AddDate(0, 0, i%5), float64(i) / 4}
}

func fillChunks(t *testing.T, tbl *Table, n int) {
	t.Helper()
	for i := range n {
		if err := tbl.Insert(chunkRow(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func sameRow(a, b rowset.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !rowset.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// boxOf is the address of the boxed value an interface cell points at.
func boxOf(v rowset.Value) unsafe.Pointer { return (*[2]unsafe.Pointer)(unsafe.Pointer(&v))[1] }

func TestCursorIsPointInTime(t *testing.T) {
	tbl := NewTable("T", chunkSchema())
	fillChunks(t, tbl, 3)
	cur := tbl.Cursor()
	if err := tbl.Insert(chunkRow(3)); err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		r, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if r == nil {
			break
		}
		n++
	}
	if n != 3 || tbl.Len() != 4 {
		t.Fatalf("cursor saw %d rows of a table now %d long, want 3 of 4", n, tbl.Len())
	}
}

// TestRowAppendIsClipped: a stored row's capacity ends at its last cell, so
// appending to a row handed out cannot write into the next row of its chunk.
func TestRowAppendIsClipped(t *testing.T) {
	tbl := NewTable("T", chunkSchema())
	fillChunks(t, tbl, 3)
	snap := tbl.Snapshot()
	if cap(snap[0]) != len(snap[0]) {
		t.Fatalf("row cap %d, len %d", cap(snap[0]), len(snap[0]))
	}
	grown := append(snap[0], "spill")
	grown[0] = int64(-1)
	for i, r := range tbl.Snapshot() {
		if !sameRow(r, chunkRow(i)) {
			t.Fatalf("row %d = %v after an append on row 0, want %v", i, r, chunkRow(i))
		}
	}
}

func TestReplaceTruncateKeepOldSnapshot(t *testing.T) {
	tbl := NewTable("T", chunkSchema())
	fillChunks(t, tbl, 40)
	snap := tbl.Snapshot()
	if err := tbl.Replace([]rowset.Row{chunkRow(100), chunkRow(101)}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(chunkRow(102)); err != nil {
		t.Fatal(err)
	}
	mid := tbl.Snapshot()
	tbl.Truncate()
	fillChunks(t, tbl, 40)
	if len(snap) != 40 || len(mid) != 3 {
		t.Fatalf("snapshots are %d and %d rows, want 40 and 3", len(snap), len(mid))
	}
	for i, r := range snap {
		if !sameRow(r, chunkRow(i)) {
			t.Fatalf("old snapshot row %d = %v, want %v", i, r, chunkRow(i))
		}
	}
	for i, r := range mid {
		if !sameRow(r, chunkRow(100+i)) {
			t.Fatalf("replaced snapshot row %d = %v, want %v", i, r, chunkRow(100+i))
		}
	}
}

// TestChunkLayout: rows keep their order and values across the small
// doubling chunks and several full ones, and from row DefaultMorselSize on,
// each scan partition is one contiguous chunk.
func TestChunkLayout(t *testing.T) {
	tbl := NewTable("T", chunkSchema())
	n := 4*DefaultMorselSize + 100
	fillChunks(t, tbl, n)
	snap := tbl.Snapshot()
	if len(snap) != n {
		t.Fatalf("%d rows, want %d", len(snap), n)
	}
	for i, r := range snap {
		if !sameRow(r, chunkRow(i)) {
			t.Fatalf("row %d = %v, want %v", i, r, chunkRow(i))
		}
	}
	cell := unsafe.Sizeof(rowset.Value(nil)) * uintptr(chunkSchema().Len())
	for _, m := range MorselRanges(n, 0)[1:] {
		base := uintptr(unsafe.Pointer(&snap[m.Lo][0]))
		for i := m.Lo; i < m.Hi; i++ {
			if got := uintptr(unsafe.Pointer(&snap[i][0])) - base; got != uintptr(i-m.Lo)*cell {
				t.Fatalf("row %d is not at offset %d of its partition's chunk", i, i-m.Lo)
			}
		}
	}
}

// TestCoercionErrorLeavesTable: a row that fails to coerce in its middle
// column commits nothing, through Insert, InsertMany and Replace.
func TestCoercionErrorLeavesTable(t *testing.T) {
	tbl := NewTable("T", chunkSchema())
	fillChunks(t, tbl, 20)
	bad := rowset.Row{int64(1), "x", "not a date", 1.0}
	if err := tbl.Insert(bad); err == nil {
		t.Fatal("Insert of an uncoercible DATE succeeded")
	}
	if err := tbl.InsertMany([]rowset.Row{chunkRow(20), bad}); err == nil {
		t.Fatal("InsertMany with an uncoercible DATE succeeded")
	}
	if err := tbl.Replace([]rowset.Row{chunkRow(0), bad}); err == nil {
		t.Fatal("Replace with an uncoercible DATE succeeded")
	}
	if err := tbl.Insert(chunkRow(21)); err != nil {
		t.Fatal(err)
	}
	snap := tbl.Snapshot()
	if len(snap) != 22 || tbl.Len() != 22 {
		t.Fatalf("%d rows after the failed writes, want 22", len(snap))
	}
	for i, r := range snap {
		if !sameRow(r, chunkRow(i)) {
			t.Fatalf("row %d = %v, want %v", i, r, chunkRow(i))
		}
	}
}

// TestInternedValues: equal TEXT cells of a column share one box and equal
// what was inserted; a DATE, stored as given, keeps its instant and its
// location.
func TestInternedValues(t *testing.T) {
	tbl := NewTable("T", chunkSchema())
	utc := day0.UTC()
	rows := []rowset.Row{
		{int64(1), "a" + "b", day0, 1.0},
		{int64(2), string([]byte("ab")), day0.Add(0), 2.0},
		{int64(3), "ab", utc, 3.0},
	}
	for _, r := range rows {
		if err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	snap := tbl.Snapshot()
	for i, r := range snap {
		if !sameRow(r, rows[i]) {
			t.Fatalf("row %d = %v, want %v", i, r, rows[i])
		}
	}
	if boxOf(snap[0][1]) != boxOf(snap[1][1]) || boxOf(snap[1][1]) != boxOf(snap[2][1]) {
		t.Error("equal TEXT cells do not share one box")
	}
	d0, d2 := snap[0][2].(time.Time), snap[2][2].(time.Time)
	if !d0.Equal(day0) || d0.Location() != day0.Location() {
		t.Errorf("stored DATE %v, want %v", d0, day0)
	}
	if !d2.Equal(day0) || d2.Location() != time.UTC {
		t.Errorf("stored UTC DATE %v, want %v in UTC", d2, utc)
	}
}

// TestSaveLoadSaveIdentical: a table written, loaded back into chunks and
// written again produces the same .tbl bytes.
func TestSaveLoadSaveIdentical(t *testing.T) {
	db := NewDatabase()
	tbl, err := db.CreateTable("T", chunkSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillChunks(t, tbl, DefaultMorselSize+50)
	if err := tbl.Insert(rowset.Row{nil, nil, nil, nil}); err != nil {
		t.Fatal(err)
	}
	first, second := t.TempDir(), t.TempDir()
	if err := db.Save(first); err != nil {
		t.Fatal(err)
	}
	db2 := NewDatabase()
	if err := db2.Load(first); err != nil {
		t.Fatal(err)
	}
	if err := db2.Save(second); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(filepath.Join(first, "T.tbl"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(second, "T.tbl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("re-saved table differs: %d bytes against %d", len(b), len(a))
	}
}

// TestInsertInternedAllocs guards the chunked write path: inserting a row
// whose values already have their column types and whose TEXT is already
// interned allocates nothing per row — only a chunk per DefaultMorselSize
// rows and the growth of the row slice.
func TestInsertInternedAllocs(t *testing.T) {
	tbl := NewTable("T", chunkSchema())
	row := chunkRow(1 << 20)
	if err := tbl.Insert(row); err != nil {
		t.Fatal(err)
	}
	const perRun = DefaultMorselSize
	allocs := testing.AllocsPerRun(10, func() {
		for range perRun {
			if err := tbl.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
	})
	if got := allocs / perRun; got > 0.01 {
		t.Fatalf("Insert of an interned row: %.4f allocations per row, want <= 0.01", got)
	}
}

// BenchmarkInsertText inserts 100 000 already-typed rows into a fresh table
// whose TEXT column holds 8 distinct values (every cell after the first 8 an
// intern hit) or only distinct ones (every cell a miss, and the dictionary
// full after 4096): the two sides of TEXT interning.
func BenchmarkInsertText(b *testing.B) {
	const n = 100000
	schema := rowset.MustSchema(
		rowset.Column{Name: "ID", Type: rowset.TypeLong},
		rowset.Column{Name: "S", Type: rowset.TypeText},
		rowset.Column{Name: "X", Type: rowset.TypeDouble},
	)
	for _, bc := range []struct {
		name     string
		distinct int
	}{{"repeated", 8}, {"unique", n}} {
		rows := make([]rowset.Row, n)
		for i := range rows {
			rows[i] = rowset.Row{int64(i), fmt.Sprintf("value-%09d", i%bc.distinct), float64(i)}
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				tbl := NewTable("T", schema)
				for _, r := range rows {
					if err := tbl.Insert(r); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		})
	}
}
