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
	rows    []rowset.Row          // subslices of the chunks; see chunks.go
	chunks  rowset.Chunks         // where the next row is written
	indexes map[string]*hashIndex // keyed by lower-cased column name

	// statsSnap holds the immutable cardinality summary last computed, tagged
	// with the data version it reflects. Readers swap in fresh snapshots
	// atomically (see stats.go), so the planner reads statistics without ever
	// taking the write lock — a stats lookup never blocks behind an insert
	// burst, and vice versa.
	statsSnap atomic.Pointer[statsSnapshot]
	// keyIdx holds the hash joins' key indexes over the current data version
	// the same way (see keyindex.go); every write drops them.
	keyIdx atomic.Pointer[keyIndexes]
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

// Insert appends a row. Values are coerced to the column types before the
// write lock is taken; arity and coercion failures are errors and leave the
// table unchanged.
func (t *Table) Insert(r rowset.Row) error {
	r, err := t.coerce(r)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.insertLocked(r)
	return nil
}

// InsertMany appends rows under one write lock, stopping at the first error:
// the rows before it are inserted.
func (t *Table) InsertMany(rows []rowset.Row) error {
	coerced, err := t.coerceAll(rows)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range coerced {
		t.insertLocked(r)
	}
	return err
}

func (t *Table) insertLocked(r rowset.Row) {
	t.appendLocked(r)
	pos := len(t.rows) - 1
	for _, idx := range t.indexes {
		idx.add(t.rows[pos][idx.ord], pos)
	}
	t.bumpVersion()
}

// Replace atomically substitutes the table's contents with rows (used by
// UPDATE and predicated DELETE), written into fresh chunks. Rows are
// validated and coerced like Insert; on any error the table is left
// unchanged.
func (t *Table) Replace(rows []rowset.Row) error {
	coerced, err := t.coerceAll(rows)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows, t.chunks = make([]rowset.Row, 0, len(coerced)), rowset.Chunks{}
	for _, r := range coerced {
		t.appendLocked(r)
	}
	t.reindexLocked()
	return nil
}

// Truncate removes all rows (DELETE FROM with no predicate); the next insert
// starts a fresh chunk.
func (t *Table) Truncate() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows, t.chunks = nil, rowset.Chunks{}
	t.reindexLocked()
}

// reindexLocked rebuilds every index over the table's new contents.
func (t *Table) reindexLocked() {
	for k, idx := range t.indexes {
		t.indexes[k] = newHashIndex(idx.ord, idx.typ).build(t.rows)
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
// Replace/Truncate start a fresh slice, so the snapshot stays consistent
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

// Size reports the snapshot's exact row count, which drains presize by.
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
	t.indexes[key] = newHashIndex(ord, t.schema.Column(ord).Type).build(t.rows)
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

// LookupEqualRows returns the rows whose column col equals v, directly
// (shared, read-only), in insertion order, doing O(bucket) work when an index
// exists on col and falling back to a scan when none does. It is the streaming executor's point-lookup
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
	return groups(ctx, idx, t.rows, keys)
}

// GroupRows is Groups over rows no table holds (a query's output), matched
// on column ord, declared typ, through a KeyIndex built over them.
func GroupRows(ctx context.Context, rows []rowset.Row, ord int, typ rowset.Type, keys []rowset.Value) (rowset.Groups, error) {
	x, err := BuildKeyIndex(ctx, rows, ord, rowset.KeyKindOf(typ, typ))
	if err != nil {
		return rowset.Groups{}, err
	}
	return groups(ctx, x, rows, keys)
}

// hashIndex maps value keys to row positions: ids gives every distinct key —
// under rowset.Key equality, keyed as the column's declared type says — a
// dense id, and pos[id] lists its rows.
type hashIndex struct {
	ord int
	typ rowset.Type
	ids *rowset.KeyTable
	pos [][]int32
}

func newHashIndex(ord int, typ rowset.Type) *hashIndex {
	return &hashIndex{ord: ord, typ: typ, ids: rowset.NewKeyTable(rowset.KeyKindOf(typ, typ), 0)}
}

// build adds rows to the index, each at its position.
func (ix *hashIndex) build(rows []rowset.Row) *hashIndex {
	for pos, r := range rows {
		ix.add(r[ix.ord], pos)
	}
	return ix
}

func (ix *hashIndex) add(v rowset.Value, pos int) {
	if id := ix.ids.Add(v); int(id) < len(ix.pos) {
		ix.pos[id] = append(ix.pos[id], int32(pos))
	} else {
		ix.pos = append(ix.pos, []int32{int32(pos)})
	}
}

// lookup neither allocates nor writes, so probes may run side by side.
func (ix *hashIndex) lookup(v rowset.Value) []int32 {
	if id, ok := ix.ids.Find(v); ok {
		return ix.pos[id]
	}
	return nil
}

func (ix *hashIndex) find(v rowset.Value) (int32, bool) { return ix.ids.Find(v) }
func (ix *hashIndex) bucket(id int32) []int32           { return ix.pos[id] }

// groups is Groups' body over ix — a table's hashIndex or a KeyIndex — in two
// passes: the first probes every key, leaving its id in Ends (-1: none) and
// summing the sizes of the groups; the second copies the groups into a Pos of
// exactly that size.
func groups(ctx context.Context, ix interface {
	find(rowset.Value) (int32, bool)
	bucket(int32) []int32
}, base []rowset.Row, keys []rowset.Value) (rowset.Groups, error) {
	g, n := rowset.Groups{Base: base, Ends: make([]int32, len(keys))}, 0
	for i, k := range keys {
		if i%rowset.DefaultBatchSize == 0 {
			if err := ctx.Err(); err != nil {
				return rowset.Groups{}, err
			}
		}
		g.Ends[i] = -1
		if id, ok := ix.find(k); ok && k != nil {
			g.Ends[i], n = id, n+len(ix.bucket(id))
		}
	}
	g.Pos = make([]int32, 0, n)
	for i, id := range g.Ends {
		if id >= 0 {
			g.Pos = append(g.Pos, ix.bucket(id)...)
		}
		g.Ends[i] = int32(len(g.Pos))
	}
	return g, nil
}
