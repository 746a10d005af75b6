package storage

import (
	"fmt"
	"slices"

	"repro/internal/rowset"
)

// Stored row layout, and the snapshots and partitions read from it. A table
// writes its rows through a rowset.Chunks, which lays them out in chunks and
// interns their TEXT cells (see internal/rowset/chunks.go): the first chunks
// are small and double — 16, 16, 32, …, 2048 rows, 4096 in all — and every
// chunk after them holds exactly the DefaultMorselSize rows of one scan
// partition, so a parallel consumer that splits a snapshot by MorselRanges
// reads one contiguous chunk per partition past the first. Because the
// partitions cover the snapshot in row order, merging per-partition results
// in partition order reconstructs exactly the sequential scan order — the
// property the engine leans on for byte-identical parallel GROUP BY.

// DefaultMorselSize is the row count of a full chunk and of a scan
// partition: big enough that per-partition scheduling overhead is noise,
// small enough to load-balance skewed filters across workers.
const DefaultMorselSize = rowset.ChunkRows

// coerce returns r with every value normalized and coerced to its column's
// type. When every value already has its column's type — the common case —
// it returns r itself, so the caller's boxes are kept and nothing is
// allocated; otherwise it returns a fresh row. It reads only the immutable
// schema, so it runs before the write lock is taken.
func (t *Table) coerce(r rowset.Row) (rowset.Row, error) {
	if len(r) != t.schema.Len() {
		return nil, fmt.Errorf("storage: table %s: row has %d values, want %d", t.name, len(r), t.schema.Len())
	}
	var out rowset.Row // copied from r at the first value that changes
	for i, v := range r {
		col := t.schema.Column(i)
		if v == nil || rowset.TypeOf(v) == col.Type {
			continue
		}
		cv, err := rowset.Coerce(rowset.Normalize(v), col.Type)
		if err != nil {
			return nil, fmt.Errorf("storage: table %s column %s: %w", t.name, col.Name, err)
		}
		if out == nil {
			out = slices.Clone(r)
		}
		out[i] = cv
	}
	if out == nil {
		return r, nil
	}
	return out, nil
}

// coerceAll coerces rows in order, stopping at the first error; it returns
// the rows coerced before it.
func (t *Table) coerceAll(rows []rowset.Row) ([]rowset.Row, error) {
	out := make([]rowset.Row, 0, len(rows))
	for _, r := range rows {
		c, err := t.coerce(r)
		if err != nil {
			return out, err
		}
		out = append(out, c)
	}
	return out, nil
}

// appendLocked copies the coerced row r into the table's chunks, interning
// its TEXT cells, and commits it as the table's next row. t.mu must be held
// for writing.
func (t *Table) appendLocked(r rowset.Row) {
	t.rows = append(t.rows, t.chunks.Append(r))
}

// Morsel is a half-open row range [Lo, Hi) over a snapshot.
type Morsel struct {
	Lo, Hi int
}

// MorselRanges splits n rows into contiguous morsels of at most size rows
// (DefaultMorselSize when size <= 0). n == 0 yields no morsels.
func MorselRanges(n, size int) []Morsel {
	if size <= 0 {
		size = DefaultMorselSize
	}
	if n <= 0 {
		return nil
	}
	out := make([]Morsel, 0, (n+size-1)/size)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, Morsel{Lo: lo, Hi: hi})
	}
	return out
}

// Snapshot returns the table's current rows as a point-in-time snapshot with
// the same consistency argument as Cursor: rows are immutable once stored,
// appends land beyond the snapshot's length, and Replace/Truncate start a
// fresh row slice and fresh chunks. Callers must treat the slice and its rows
// as read-only.
func (t *Table) Snapshot() []rowset.Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows
}

// NextBatch makes the table scan batch-native: each batch is a zero-copy
// subslice of the snapshot. Interleaving Next and NextBatch pulls is
// undefined, per the rowset.BatchCursor contract.
func (c *tableCursor) NextBatch() (rowset.Batch, error) {
	if c.i >= len(c.rows) {
		return rowset.Batch{}, nil
	}
	hi := c.i + rowset.DefaultBatchSize
	if hi > len(c.rows) {
		hi = len(c.rows)
	}
	b := rowset.Batch{Rows: c.rows[c.i:hi]}
	c.i = hi
	return b, nil
}
