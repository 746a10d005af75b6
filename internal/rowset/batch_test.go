package rowset

import "testing"

func batchTestRowset(t *testing.T, n int) *Rowset {
	t.Helper()
	s := mustSchema(t, Column{Name: "A", Type: TypeLong}, Column{Name: "B", Type: TypeText})
	rs := New(s)
	for i := 0; i < n; i++ {
		mustAppend(rs, int64(i), "r")
	}
	return rs
}

func TestBatchSelectionVector(t *testing.T) {
	rows := []Row{{int64(0)}, {int64(1)}, {int64(2)}, {int64(3)}}
	b := Batch{Rows: rows, Sel: []int{1, 3}}
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b.Len())
	}
	if Compare(b.Row(0)[0], int64(1)) != 0 || Compare(b.Row(1)[0], int64(3)) != 0 {
		t.Fatalf("selection vector rows wrong: %v %v", b.Row(0), b.Row(1))
	}
	sub := b.Slice(1, 2)
	if sub.Len() != 1 || Compare(sub.Row(0)[0], int64(3)) != 0 {
		t.Fatalf("Slice over Sel wrong: len=%d", sub.Len())
	}
	plain := Batch{Rows: rows}
	if plain.Len() != 4 {
		t.Fatalf("plain Len = %d", plain.Len())
	}
	sub = plain.Slice(2, 4)
	if sub.Len() != 2 || Compare(sub.Row(0)[0], int64(2)) != 0 {
		t.Fatalf("Slice over Rows wrong")
	}
	if !(Batch{}).Empty() {
		t.Fatal("zero Batch should be Empty")
	}
	if plain.Empty() {
		t.Fatal("non-nil Batch reported Empty")
	}
}

func TestSliceIterNextBatch(t *testing.T) {
	rs := batchTestRowset(t, 2*DefaultBatchSize+5)
	// The rowset cursor is batch-native: zero-copy subslices.
	bc, ok := rs.Cursor().(BatchCursor)
	if !ok {
		t.Fatal("the materialized-rowset cursor does not produce batches")
	}
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
			t.Fatal("scan batch should have nil Sel")
		}
		if &b.Rows[0][0] != &rs.Rows()[total][0] {
			t.Fatal("batch rows are not zero-copy views of the rowset")
		}
		total += b.Len()
		batches++
	}
	if total != rs.Len() || batches != 3 {
		t.Fatalf("drained %d rows in %d batches, want %d in 3", total, batches, rs.Len())
	}
	if err := bc.Close(); err != nil {
		t.Fatal(err)
	}
}
