package rowset

// Batch-at-a-time cursors. The Volcano Cursor contract pays an interface
// call per row per operator; BatchCursor amortizes that over up to
// DefaultBatchSize rows, and a selection vector lets filters drop rows
// without copying the survivors into a fresh slice. It is the one protocol
// between the SQL engine's operators; Cursor is the edge (materialized
// rowsets, storage table cursors), and the edge's cursors implement both.
//
// Ownership rule (the "Batch ownership rule" dmlint's batchown analyzer
// enforces): a Batch returned by NextBatch is OWNED BY THE PRODUCER. Its
// Rows and Sel slices may be reused by the very next NextBatch call, so a
// consumer must fully process (or copy out of) a batch before pulling the
// next one, and must never store a Batch — or its Rows/Sel slices — into a
// field, append it to a slice that outlives the pull loop, or hand it to
// another goroutine. The individual Row values inside a batch are NOT
// covered by the rule: every producer in this module yields immutable rows
// that remain valid indefinitely (the same guarantee Cursor documents), so
// appending b.Row(i) to a result slice is fine; appending b.Rows is not.

// DefaultBatchSize is the row capacity batch producers use: large enough to
// amortize per-batch overhead to noise, small enough that a batch of rows
// stays cache-resident.
const DefaultBatchSize = 1024

// Batch is a producer-owned view of up to DefaultBatchSize rows. When Sel is
// non-nil it is a selection vector: only Rows[Sel[0]], Rows[Sel[1]], ... are
// live, in that order. When Sel is nil every row in Rows is live. The zero
// Batch (Rows == nil) marks end of stream; producers never yield a non-nil
// empty batch.
type Batch struct {
	Rows []Row
	Sel  []int
}

// Len returns the number of live rows in the batch.
func (b Batch) Len() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return len(b.Rows)
}

// Row returns the i-th live row (selection-vector aware).
func (b Batch) Row(i int) Row {
	if b.Sel != nil {
		return b.Rows[b.Sel[i]]
	}
	return b.Rows[i]
}

// Empty reports end of stream.
func (b Batch) Empty() bool { return b.Rows == nil }

// Slice returns the live-row window [lo, hi) of the batch as a new view
// sharing the same backing slices (no copies). Cancellation chunking uses it
// to re-poll between sub-batches.
func (b Batch) Slice(lo, hi int) Batch {
	if b.Sel != nil {
		return Batch{Rows: b.Rows, Sel: b.Sel[lo:hi]}
	}
	return Batch{Rows: b.Rows[lo:hi]}
}

// BatchCursor is the batch-at-a-time counterpart of Cursor. NextBatch
// returns the next batch of live rows, or an empty Batch at end of stream.
// Close follows the Cursor contract (idempotent, safe after exhaustion).
// See the package comment above for the batch ownership rule.
type BatchCursor interface {
	NextBatch() (Batch, error)
	Schema() *Schema
	Close() error
}

// NextBatch makes the materialized-rowset cursor a native batch producer:
// each batch is a zero-copy subslice of the rowset's backing rows.
func (it *sliceIter) NextBatch() (Batch, error) {
	n := it.rs.Len()
	if it.i >= n {
		return Batch{}, nil
	}
	hi := it.i + DefaultBatchSize
	if hi > n {
		hi = n
	}
	b := Batch{Rows: it.rs.rows[it.i:hi]}
	it.i = hi
	return b, nil
}
