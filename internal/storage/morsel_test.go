package storage

import (
	"testing"

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
