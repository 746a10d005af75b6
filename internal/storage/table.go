// Package storage implements the relational substrate under the provider:
// an in-memory heap-table engine with a catalog, optional hash indexes, and
// binary disk persistence. It plays the role of the "core relational engine"
// in Figure 1 of the paper — the thing that stores training data and answers
// the SELECT queries embedded in SHAPE statements.
package storage

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/rowset"
)

// Table is a heap table: an append-ordered collection of rows plus optional
// hash indexes. All methods are safe for concurrent use.
type Table struct {
	name   string
	schema *rowset.Schema

	// version counts data mutations (Insert/Replace/Truncate); see stats.go.
	version atomic.Uint64

	mu      sync.RWMutex
	rows    []rowset.Row
	indexes map[string]*hashIndex // keyed by lower-cased column name

	// statsSnap holds the immutable cardinality summary last computed, tagged
	// with the data version it reflects. Readers swap in fresh snapshots
	// atomically (see stats.go), so the planner reads statistics without ever
	// taking the write lock — a stats lookup never blocks behind an insert
	// burst, and vice versa.
	statsSnap atomic.Pointer[statsSnapshot]
}

// NewTable creates an empty table.
func NewTable(name string, schema *rowset.Schema) *Table {
	return &Table{name: name, schema: schema, indexes: make(map[string]*hashIndex)}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *rowset.Schema { return t.schema }

// Len returns the current row count.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// Insert appends a row. Values are coerced to the column types; arity and
// coercion failures are errors and leave the table unchanged.
func (t *Table) Insert(r rowset.Row) error {
	if len(r) != t.schema.Len() {
		return fmt.Errorf("storage: table %s: row has %d values, want %d", t.name, len(r), t.schema.Len())
	}
	row := make(rowset.Row, len(r))
	for i, v := range r {
		cv, err := rowset.Coerce(rowset.Normalize(v), t.schema.Column(i).Type)
		if err != nil {
			return fmt.Errorf("storage: table %s column %s: %w", t.name, t.schema.Column(i).Name, err)
		}
		row[i] = cv
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	pos := len(t.rows)
	t.rows = append(t.rows, row)
	for _, idx := range t.indexes {
		idx.add(row[idx.ord], pos)
	}
	t.bumpVersion()
	return nil
}

// InsertMany appends rows, stopping at the first error.
func (t *Table) InsertMany(rows []rowset.Row) error {
	for _, r := range rows {
		if err := t.Insert(r); err != nil {
			return err
		}
	}
	return nil
}

// Replace atomically substitutes the table's contents with rows (used by
// UPDATE and predicated DELETE). Rows are validated and coerced like Insert;
// on any error the table is left unchanged.
func (t *Table) Replace(rows []rowset.Row) error {
	coerced := make([]rowset.Row, len(rows))
	for i, r := range rows {
		if len(r) != t.schema.Len() {
			return fmt.Errorf("storage: table %s: row has %d values, want %d", t.name, len(r), t.schema.Len())
		}
		row := make(rowset.Row, len(r))
		for j, v := range r {
			cv, err := rowset.Coerce(rowset.Normalize(v), t.schema.Column(j).Type)
			if err != nil {
				return fmt.Errorf("storage: table %s column %s: %w", t.name, t.schema.Column(j).Name, err)
			}
			row[j] = cv
		}
		coerced[i] = row
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows = coerced
	for _, idx := range t.indexes {
		idx.reset()
		for pos, r := range t.rows {
			idx.add(r[idx.ord], pos)
		}
	}
	t.bumpVersion()
	return nil
}

// Truncate removes all rows (DELETE FROM with no predicate).
func (t *Table) Truncate() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows = nil
	for _, idx := range t.indexes {
		idx.reset()
	}
	t.bumpVersion()
}

// Scan returns a point-in-time snapshot of the table as a Rowset. The rows
// are shared (not copied); callers must not mutate them.
func (t *Table) Scan() *rowset.Rowset {
	t.mu.RLock()
	defer t.mu.RUnlock()
	rs, err := rowset.FromRows(t.schema, t.rows)
	if err != nil {
		// Rows were validated on insert, so a failure here means the in-memory
		// table was corrupted (e.g. a caller mutated a shared row). That is a
		// sanctioned corruption panic, not a recoverable error.
		//
		//dmlint:allow nopanic — documented corruption path: rows were validated on insert, so failure means in-memory state was corrupted.
		panic(fmt.Sprintf("storage: corrupt table %s: %v", t.name, err))
	}
	return rs
}

// Cursor returns a streaming point-in-time snapshot of the table. Rows are
// shared with the table, not copied or re-normalized: inserted rows are
// immutable once stored, appends land beyond the snapshot's length, and
// Replace/Truncate swap in a fresh slice, so the snapshot stays consistent
// without holding the lock while the caller drains it.
func (t *Table) Cursor() rowset.Cursor {
	t.mu.RLock()
	rows := t.rows
	t.mu.RUnlock()
	return &tableCursor{schema: t.schema, rows: rows}
}

type tableCursor struct {
	schema *rowset.Schema
	rows   []rowset.Row
	i      int
}

func (c *tableCursor) Next() (rowset.Row, error) {
	if c.i >= len(c.rows) {
		return nil, nil
	}
	r := c.rows[c.i]
	c.i++
	return r, nil
}

func (c *tableCursor) Schema() *rowset.Schema { return c.schema }

// Size reports the snapshot's exact row count, a cardinality hint join
// planners use to pick the smaller hash-join build side.
func (c *tableCursor) Size() int { return len(c.rows) }

func (c *tableCursor) Close() error {
	c.i = len(c.rows)
	c.rows = nil
	return nil
}

// CreateIndex builds a hash index on the named column. Indexing an already
// indexed column is a no-op.
func (t *Table) CreateIndex(col string) error {
	ord, ok := t.schema.Lookup(col)
	if !ok {
		return fmt.Errorf("storage: table %s: unknown column %q", t.name, col)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	key := t.schema.Column(ord).Name
	if _, exists := t.indexes[key]; exists {
		return nil
	}
	idx := newHashIndex(ord)
	for pos, r := range t.rows {
		idx.add(r[ord], pos)
	}
	t.indexes[key] = idx
	return nil
}

// HasIndex reports whether a hash index exists on the named column.
func (t *Table) HasIndex(col string) bool {
	ord, ok := t.schema.Lookup(col)
	if !ok {
		return false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, exists := t.indexes[t.schema.Column(ord).Name]
	return exists
}

// LookupEqual returns the rows whose indexed column equals v. It falls back
// to a scan when no index exists on col.
func (t *Table) LookupEqual(col string, v rowset.Value) (*rowset.Rowset, error) {
	rows, err := t.LookupEqualRows(col, v)
	if err != nil {
		return nil, err
	}
	out := rowset.New(t.schema)
	for _, r := range rows {
		if err := out.Append(r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// LookupEqualRows is LookupEqual without the Rowset: it returns the matching
// rows directly (shared, read-only), in insertion order, doing O(bucket) work
// when an index exists on col. It is the streaming executor's point-lookup
// primitive, so it avoids both materialization and per-row re-normalization.
func (t *Table) LookupEqualRows(col string, v rowset.Value) ([]rowset.Row, error) {
	ord, ok := t.schema.Lookup(col)
	if !ok {
		return nil, fmt.Errorf("storage: table %s: unknown column %q", t.name, col)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if idx, ok := t.indexes[t.schema.Column(ord).Name]; ok {
		positions := idx.lookup(v)
		if len(positions) == 0 {
			return nil, nil
		}
		out := make([]rowset.Row, len(positions))
		for i, pos := range positions {
			out[i] = t.rows[pos]
		}
		return out, nil
	}
	var out []rowset.Row
	for _, r := range t.rows {
		if rowset.Equal(r[ord], v) {
			out = append(out, r)
		}
	}
	return out, nil
}

// Groups answers one equality probe of the index on col per key, as a SHAPE
// RELATE needs them: the rows equal to keys[i] are group i of the result, in
// insertion order. Every probe runs under one read lock against the snapshot
// returned as Base, so a concurrent write cannot mix two versions of the
// table into one answer, and nothing is copied. A NULL key matches nothing,
// as in SQL equality. ctx is polled every rowset.DefaultBatchSize keys.
func (t *Table) Groups(ctx context.Context, col string, keys []rowset.Value) (rowset.Groups, error) {
	ord, ok := t.schema.Lookup(col)
	if !ok {
		return rowset.Groups{}, fmt.Errorf("storage: table %s: unknown column %q", t.name, col)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	idx, ok := t.indexes[t.schema.Column(ord).Name]
	if !ok {
		return rowset.Groups{}, fmt.Errorf("storage: table %s: no index on column %q", t.name, col)
	}
	return idx.groups(ctx, t.rows, keys)
}

// GroupRows is Groups over rows no table holds (a query's output), matched
// on column ord.
func GroupRows(ctx context.Context, rows []rowset.Row, ord int, keys []rowset.Value) (rowset.Groups, error) {
	idx := newHashIndex(ord)
	for pos, r := range rows {
		idx.add(r[ord], pos)
	}
	return idx.groups(ctx, rows, keys)
}

// hashIndex maps value keys to row positions.
type hashIndex struct {
	ord  int
	rows map[string][]int32
}

func newHashIndex(ord int) *hashIndex {
	return &hashIndex{ord: ord, rows: make(map[string][]int32)}
}

func (ix *hashIndex) add(v rowset.Value, pos int) {
	k := rowset.Key(v)
	ix.rows[k] = append(ix.rows[k], int32(pos))
}

// lookup probes via an AppendKey scratch buffer and a map[string(bytes)]
// access, which the compiler compiles without materializing the key string —
// the probe itself does not allocate (the small stack buffer escapes only if
// the key is unusually long).
func (ix *hashIndex) lookup(v rowset.Value) []int32 {
	var scratch [48]byte
	return ix.rows[string(rowset.AppendKey(scratch[:0], v))]
}

// groups is Groups' body. Pos starts with room for every row of base, so it
// grows only when keys repeat.
func (ix *hashIndex) groups(ctx context.Context, base []rowset.Row, keys []rowset.Value) (rowset.Groups, error) {
	g := rowset.Groups{Base: base, Pos: make([]int32, 0, len(base)), Ends: make([]int32, len(keys))}
	for i, k := range keys {
		if i%rowset.DefaultBatchSize == 0 {
			if err := ctx.Err(); err != nil {
				return rowset.Groups{}, err
			}
		}
		if k != nil {
			g.Pos = append(g.Pos, ix.lookup(k)...)
		}
		g.Ends[i] = int32(len(g.Pos))
	}
	return g, nil
}

func (ix *hashIndex) reset() {
	ix.rows = make(map[string][]int32)
}
