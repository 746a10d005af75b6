// Package storage implements the relational substrate under the provider:
// an in-memory heap-table engine with a catalog, declared key indexes, and
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

// Table is a heap table: an append-ordered collection of rows, the columns
// declared indexed, and the key indexes cached over its current rows. All
// methods are safe for concurrent use.
type Table struct {
	name   string
	schema *rowset.Schema

	// version counts data mutations (Insert/Replace/Truncate); see keyindex.go.
	version atomic.Uint64

	//dmlint:guard mu: Table.rows, Table.chunks, Table.indexed
	mu      sync.RWMutex
	rows    []rowset.Row  // subslices of the chunks; see chunks.go
	chunks  rowset.Chunks // where the next row is written
	indexed []bool        // by ordinal: the columns CreateIndex declared

	// keyIdx holds the key indexes over the current data version, cached
	// copy-on-write (see keyindex.go); every write drops them.
	keyIdx atomic.Pointer[keyIndexes]
}

// NewTable creates an empty table.
func NewTable(name string, schema *rowset.Schema) *Table {
	return &Table{name: name, schema: schema, indexed: make([]bool, schema.Len())}
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
	t.appendLocked(r)
	t.bumpVersion()
	return nil
}

// InsertMany appends rows under one write lock, stopping at the first error:
// the rows before it are inserted.
func (t *Table) InsertMany(rows []rowset.Row) error {
	coerced, err := t.coerceAll(rows)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range coerced {
		t.appendLocked(r)
	}
	t.bumpVersion()
	return err
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
	t.bumpVersion()
	return nil
}

// Truncate removes all rows (DELETE FROM with no predicate); the next insert
// starts a fresh chunk.
func (t *Table) Truncate() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows, t.chunks = nil, rowset.Chunks{}
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

// CreateIndex declares the named column indexed: its equality probes —
// LookupEqualRows, Groups and the SQL engine's pushed predicates — read its
// key index, which the first of them after each write builds (KeyIndex).
// Declaring builds nothing, and declaring a declared column is a no-op.
func (t *Table) CreateIndex(col string) error {
	ord, ok := t.schema.Lookup(col)
	if !ok {
		return fmt.Errorf("storage: table %s: unknown column %q", t.name, col)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.indexed[ord] = true
	return nil
}

// HasIndex reports whether the named column is declared indexed.
func (t *Table) HasIndex(col string) bool {
	_, ok, _ := t.declared(col)
	return ok
}

// declared returns col's ordinal and whether it is declared indexed.
func (t *Table) declared(col string) (int, bool, error) {
	ord, ok := t.schema.Lookup(col)
	if !ok {
		return 0, false, fmt.Errorf("storage: table %s: unknown column %q", t.name, col)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return ord, t.indexed[ord], nil
}

// LookupEqualRows returns the rows whose column col equals v, directly
// (shared, read-only), in insertion order: from the column's key index when it
// is declared indexed, where a NULL matches nothing, and by a scan when it is
// not. It is the point-lookup primitive, so it avoids both materialization and
// per-row re-normalization.
func (t *Table) LookupEqualRows(col string, v rowset.Value) ([]rowset.Row, error) {
	ord, indexed, err := t.declared(col)
	if err != nil {
		return nil, err
	}
	if !indexed {
		var out []rowset.Row
		for _, r := range t.Snapshot() {
			if rowset.Equal(r[ord], v) {
				out = append(out, r)
			}
		}
		return out, nil
	}
	typ := t.schema.Column(ord).Type
	//dmlint:allow ctxflow — LookupEqualRows keeps its context-free signature; a build is O(rows) with no I/O, once per data version.
	x, _, err := t.KeyIndex(context.TODO(), ord, rowset.KeyKindOf(typ, typ))
	if err != nil {
		return nil, err
	}
	return x.LookupRows(v), nil
}

// Groups answers one equality probe of the key index of col, which must be
// declared indexed, per key, as a SHAPE RELATE needs them: the rows equal to
// keys[i] are group i of the result, in insertion order. Every probe reads the
// one snapshot the index covers, returned as Base, so a concurrent write
// cannot mix two versions of the table into one answer, and nothing is
// copied. A NULL key matches nothing, as in SQL equality. ctx is polled
// every rowset.DefaultBatchSize keys, and by a build.
func (t *Table) Groups(ctx context.Context, col string, keys []rowset.Value) (rowset.Groups, error) {
	ord, indexed, err := t.declared(col)
	if err != nil {
		return rowset.Groups{}, err
	}
	if !indexed {
		return rowset.Groups{}, fmt.Errorf("storage: table %s: no index on column %q", t.name, col)
	}
	typ := t.schema.Column(ord).Type
	x, _, err := t.KeyIndex(ctx, ord, rowset.KeyKindOf(typ, typ))
	if err != nil {
		return rowset.Groups{}, err
	}
	return groups(ctx, x, keys)
}

// GroupRows is Groups over rows no table holds (a query's output), matched
// on column ord, declared typ, through a KeyIndex built over them.
func GroupRows(ctx context.Context, rows []rowset.Row, ord int, typ rowset.Type, keys []rowset.Value) (rowset.Groups, error) {
	x, err := BuildKeyIndex(ctx, rows, ord, rowset.KeyKindOf(typ, typ))
	if err != nil {
		return rowset.Groups{}, err
	}
	return groups(ctx, x, keys)
}

// groups is Groups' body over x in two passes: the first probes every key,
// leaving its id in Ends (-1: none) and summing the sizes of the groups; the
// second copies the groups into a Pos of exactly that size.
func groups(ctx context.Context, x *KeyIndex, keys []rowset.Value) (rowset.Groups, error) {
	g, n := rowset.Groups{Base: x.Rows, Ends: make([]int32, len(keys))}, 0
	for i, k := range keys {
		if i%rowset.DefaultBatchSize == 0 {
			if err := ctx.Err(); err != nil {
				return rowset.Groups{}, err
			}
		}
		g.Ends[i] = -1
		if id, ok := x.find(k); ok {
			g.Ends[i], n = id, n+len(x.bucket(id))
		}
	}
	g.Pos = make([]int32, 0, n)
	for i, id := range g.Ends {
		if id >= 0 {
			g.Pos = append(g.Pos, x.bucket(id)...)
		}
		g.Ends[i] = int32(len(g.Pos))
	}
	return g, nil
}
