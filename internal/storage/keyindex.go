package storage

import (
	"context"
	"maps"

	"repro/internal/rowset"
)

// KeyIndex is the key index of one column over a row snapshot, Rows, in a
// CSR layout: keys gives each distinct non-NULL key a dense id, and the rows
// of id are Rows[pos[i]] for i in [offs[id], offs[id+1]), in snapshot order.
// It is only read once built, by any number of goroutines at once.
type KeyIndex struct {
	Rows []rowset.Row
	keys *rowset.KeyTable
	offs []int32
	pos  []int32
}

// Lookup returns the positions in Rows of the rows whose key equals v's; a
// NULL matches nothing.
func (x *KeyIndex) Lookup(v rowset.Value) []int32 {
	if id, ok := x.find(v); ok {
		return x.bucket(id)
	}
	return nil
}

// LookupRows returns the rows Lookup finds, shared, in snapshot order.
func (x *KeyIndex) LookupRows(v rowset.Value) []rowset.Row {
	pos := x.Lookup(v)
	if len(pos) == 0 {
		return nil
	}
	out := make([]rowset.Row, len(pos))
	for i, p := range pos {
		out[i] = x.Rows[p]
	}
	return out
}

// EqEstimate is how many rows an equality on the column is expected to
// select, which the SQL planner picks a pushed probe by and EXPLAIN shows:
// the rows over the distinct values, NULL counting as one, at least 1 while
// there are rows.
func (x *KeyIndex) EqEstimate() int {
	if len(x.Rows) == 0 {
		return 0
	}
	d := x.keys.Len()
	if len(x.pos) < len(x.Rows) {
		d++ // the NULLs, which the index leaves out
	}
	return max(len(x.Rows)/d, 1)
}

func (x *KeyIndex) find(v rowset.Value) (int32, bool) { return x.keys.Find(v) }
func (x *KeyIndex) bucket(id int32) []int32           { return x.pos[x.offs[id]:x.offs[id+1]] }

// BuildKeyIndex indexes rows, read in place, by column ord under kind, on the
// calling goroutine, polling ctx.Done() before each DefaultMorselSize rows.
func BuildKeyIndex(ctx context.Context, rows []rowset.Row, ord int, kind rowset.KeyKind) (*KeyIndex, error) {
	// Room for a key per four rows: a foreign key's table grows no more.
	x := &KeyIndex{Rows: rows, keys: rowset.NewKeyTable(kind, len(rows)/4)}
	ids := make([]int32, len(rows)) // -1: NULL, which matches nothing
	for _, m := range MorselRanges(len(rows), 0) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		default:
		}
		for i := m.Lo; i < m.Hi; i++ {
			ids[i] = -1
			if v := rows[i][ord]; v != nil {
				ids[i] = x.keys.Add(v)
			}
		}
	}
	// Counts, then run ends, then positions: each row lands at its run's
	// cursor, which leaves offs[id] at the run's end — shift it back one.
	keys := x.keys.Len()
	x.offs = make([]int32, keys+1)
	for _, id := range ids {
		if id >= 0 {
			x.offs[id+1]++
		}
	}
	for k := 1; k <= keys; k++ {
		x.offs[k] += x.offs[k-1]
	}
	x.pos = make([]int32, x.offs[keys])
	for i, id := range ids {
		if id >= 0 {
			x.pos[x.offs[id]] = int32(i)
			x.offs[id]++
		}
	}
	copy(x.offs[1:], x.offs[:keys])
	x.offs[0] = 0
	return x, nil
}

// bumpVersion moves the data version on after a write and drops the cached key
// indexes, so none pins the old snapshot. t.mu must be held for writing.
func (t *Table) bumpVersion() {
	t.version.Add(1)
	t.keyIdx.Store(nil)
}

// keyIndexes is the copy-on-write set of a table's cached key indexes, all
// over the snapshot of one data version.
type keyIndexes struct {
	version uint64
	idx     map[keyIndexKey]*KeyIndex
}

type keyIndexKey struct {
	ord  int
	kind rowset.KeyKind
}

// CachedKeyIndex returns the cached key index of column ord under kind over
// the table's current data version, or nil when none is cached.
func (t *Table) CachedKeyIndex(ord int, kind rowset.KeyKind) *KeyIndex {
	if set := t.keyIdx.Load(); set != nil && set.version == t.version.Load() {
		return set.idx[keyIndexKey{ord, kind}]
	}
	return nil
}

// KeyIndex returns the key index of column ord under kind over a snapshot of
// the table, built at most once per data version, and whether this call built
// it (false: it was cached). The snapshot and its version are read together
// under the read lock; the build runs outside it, as BuildKeyIndex does, and
// a build that fails or is cancelled caches nothing. A build is published
// only while the table is still at the version it indexed, so a cached index
// never covers a stale snapshot, and every write drops the cache
// (bumpVersion), so none pins an old one. Of two builds of one index, the
// first published stays.
func (t *Table) KeyIndex(ctx context.Context, ord int, kind rowset.KeyKind) (*KeyIndex, bool, error) {
	if x := t.CachedKeyIndex(ord, kind); x != nil {
		return x, false, nil
	}
	t.mu.RLock()
	rows, v := t.rows, t.version.Load()
	t.mu.RUnlock()
	x, err := BuildKeyIndex(ctx, rows, ord, kind)
	if err != nil {
		return nil, false, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	// No write moves the version while the read lock is held; the loop
	// retries only a CAS lost to another build publishing beside this one.
	for t.version.Load() == v {
		old := t.keyIdx.Load()
		next := &keyIndexes{version: v, idx: map[keyIndexKey]*KeyIndex{{ord, kind}: x}}
		if old != nil && old.version == v {
			maps.Copy(next.idx, old.idx)
		}
		if t.keyIdx.CompareAndSwap(old, next) {
			break
		}
	}
	return x, true, nil
}
