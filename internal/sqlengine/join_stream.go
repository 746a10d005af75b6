package sqlengine

// Join operators. Both keep the left-major output order — left rows in their
// scan order, each followed by its matches in right scan order — so the
// partitions of a joined FROM clause merge to the rows of one front-to-back
// pass:
//
//   - hashJoin: an equi-join. The statement builds one read-only joinIndex
//     over the right input before its partitions run; each partition probes it
//     with its own range of the left input, a batch at a time, and carves the
//     batch's joined rows out of one value array.
//   - loopJoin: cross joins and general ON expressions; materializes the right
//     side once and streams the left, at most DefaultBatchSize joined rows per
//     pull. A statement with one runs as one partition.

import (
	"context"
	"math"

	"repro/internal/rowset"
)

// keyKind is how a joinIndex hashes keys, chosen from the declared types of
// the two join columns. Every kind gives exactly rowset.Key equality — the
// equality GROUP BY and DISTINCT use — whatever Go type a value turns out to
// have: a value the kind does not expect converts to the key it equals, or
// equals no key the index can hold.
type keyKind uint8

const (
	keyBytes keyKind = iota // any other pair: rowset.AppendKey's bytes
	keyText                 // TEXT = TEXT: the string
	keyLong                 // LONG = LONG: the int64
	keyFloat                // other numeric pairs: the float64's bits
)

func joinKeyKind(l, r rowset.Type) keyKind {
	numeric := func(t rowset.Type) bool { return t == rowset.TypeLong || t == rowset.TypeDouble }
	switch {
	case l == rowset.TypeLong && r == rowset.TypeLong:
		return keyLong
	case numeric(l) && numeric(r):
		return keyFloat
	case l == rowset.TypeText && r == rowset.TypeText:
		return keyText
	}
	return keyBytes
}

// numKey is v's key under keyLong or keyFloat; false means v equals no value
// that has one. A LONG meets a DOUBLE only inside ±2^53, as under Key.
func (k keyKind) numKey(v rowset.Value) (uint64, bool) {
	switch x := v.(type) {
	case int64:
		if k == keyLong {
			return uint64(x), true
		}
		if x >= -rowset.MaxExactLong && x <= rowset.MaxExactLong {
			return rowset.KeyBits(float64(x)), true
		}
	case float64:
		if k == keyFloat {
			return rowset.KeyBits(x), true
		}
		if x == math.Trunc(x) && math.Abs(x) <= rowset.MaxExactLong && !(x == 0 && math.Signbit(x)) {
			return uint64(int64(x)), true
		}
	default:
		// TEXT, BOOLEAN, DATE, TABLE: no number equals them.
	}
	return 0, false
}

// joinIndex is the hash index of a hash join's right input, built once per
// statement and then only read, by every partition at once. Each distinct
// non-NULL key has a dense id; the right rows of id are rows[pos[i]] for i in
// [offs[id], offs[id+1]), in scan order.
type joinIndex struct {
	kind keyKind
	nums map[uint64]int32 // keyLong, keyFloat
	strs map[string]int32 // keyText, keyBytes
	offs []int32
	pos  []int32
	rows []rowset.Row
}

// newJoinIndex drains right and indexes its rows by column ord under kind,
// polling ctx as a partition's scan does. right is closed in every case.
func newJoinIndex(ctx context.Context, right rowset.BatchCursor, ord int, kind keyKind) (*joinIndex, error) {
	if done := ctx.Done(); done != nil {
		right = &cancelCursor{src: right, ctx: ctx, done: done}
	}
	rows, err := drainRows(right)
	if err != nil {
		return nil, err
	}
	return indexRows(rows, ord, kind), nil
}

// indexRows indexes rows under kind, or under keyBytes once a value turns out
// to have no key under kind (a view's column may hold another type than it
// declares).
func indexRows(rows []rowset.Row, ord int, kind keyKind) *joinIndex {
	x := &joinIndex{kind: kind, rows: rows, nums: make(map[uint64]int32), strs: make(map[string]int32)}
	ids := make([]int32, len(rows))
	var scratch []byte
	for i, r := range rows {
		ids[i] = -1
		if r[ord] == nil {
			continue // NULL never matches in an equi-join
		}
		id, ok := x.find(r[ord], &scratch, true)
		if !ok {
			return indexRows(rows, ord, keyBytes)
		}
		ids[i] = id
	}
	// Counts, then run ends, then positions: each row lands at its run's
	// cursor, which leaves offs[id] at the run's end — shift it back one.
	keys := len(x.nums) + len(x.strs)
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
	return x
}

// find returns the id of v's key; with add, an unseen key gets the next one.
// false: v has no key under x.kind (and so equals no value that has one), or,
// without add, the index holds no such key. Probing allocates nothing.
func (x *joinIndex) find(v rowset.Value, scratch *[]byte, add bool) (int32, bool) {
	switch x.kind {
	case keyLong, keyFloat:
		if k, ok := x.kind.numKey(v); ok {
			return findKey(x.nums, k, add)
		}
		return 0, false
	case keyText:
		if s, ok := v.(string); ok {
			return findKey(x.strs, s, add)
		}
		return 0, false
	}
	*scratch = rowset.AppendKey((*scratch)[:0], v)
	if id, ok := x.strs[string(*scratch)]; ok || !add {
		return id, ok // map[string(bytes)] lookups do not copy the key
	}
	return findKey(x.strs, string(*scratch), true)
}

func findKey[K comparable](m map[K]int32, k K, add bool) (int32, bool) {
	id, ok := m[k]
	if !ok && add {
		id, ok = int32(len(m)), true
		m[k] = id
	}
	return id, ok
}

// fill writes the values the statement reads of left row l and right row r
// (nil: the NULL half of an unmatched LEFT JOIN row) into row, and returns it.
func (j *fromJoin) fill(row, l, r rowset.Row) rowset.Row {
	for k, o := range j.keepL {
		row[k] = l[o]
	}
	if r != nil {
		half := row[len(j.keepL):]
		for k, o := range j.keepR {
			half[k] = r[o]
		}
	}
	return row
}

// hashJoin streams one partition's left input through the statement's shared
// joinIndex. NULL keys never match (SQL equi-join semantics).
type hashJoin struct {
	*fromJoin
	left rowset.BatchCursor
	idx  *joinIndex

	lb      rowset.Batch // current left batch
	hits    [][]int32    // its live rows' matches
	rest    int          // joined rows it has yet to yield
	li, mi  int          // next pair: live row li, its match mi
	scratch []byte
	outBuf  []rowset.Row
}

// NextBatch yields up to DefaultBatchSize joined rows. One pass over a left
// batch finds every row's matches and counts its joined rows; each output
// batch then carves its rows out of one array. The rows go downstream and
// are never reused; only the batch's row slice is.
func (j *hashJoin) NextBatch() (rowset.Batch, error) {
	for j.rest == 0 {
		b, err := j.left.NextBatch()
		if err != nil || b.Empty() {
			return b, err
		}
		j.lb, j.li, j.mi, j.hits = b, 0, 0, j.hits[:0]
		for i := 0; i < b.Len(); i++ {
			var m []int32
			if v := b.Row(i)[j.lo]; v != nil {
				if id, ok := j.idx.find(v, &j.scratch, false); ok {
					m = j.idx.pos[j.idx.offs[id]:j.idx.offs[id+1]]
				}
			}
			j.hits = append(j.hits, m)
			if j.rest += len(m); len(m) == 0 && j.kind == JoinLeft {
				j.rest++
			}
		}
	}
	n, width := min(j.rest, rowset.DefaultBatchSize), j.schema.Len()
	j.rest -= n
	vals := make([]rowset.Value, n*width)
	out := j.outBuf[:0]
	for len(out) < n {
		l, m := j.lb.Row(j.li), j.hits[j.li]
		if len(m) == 0 && j.kind == JoinLeft {
			out = append(out, j.fill(vals[len(out)*width:][:width:width], l, nil))
		}
		for ; j.mi < len(m) && len(out) < n; j.mi++ {
			out = append(out, j.fill(vals[len(out)*width:][:width:width], l, j.idx.rows[m[j.mi]]))
		}
		if j.mi == len(m) {
			j.li, j.mi = j.li+1, 0
		}
	}
	j.outBuf = out
	return rowset.Batch{Rows: out}, nil
}

func (j *hashJoin) Schema() *rowset.Schema { return j.schema }
func (j *hashJoin) Close() error           { return j.left.Close() }

// loopJoin handles cross joins (on == nil: every pair) and arbitrary ON
// expressions. The right side is materialized once; left batches stream
// through it with a reusable probe row for ON evaluation. The position in the
// pair space — left batch, left row, right row — lives in the cursor, so a
// pull stops at DefaultBatchSize joined rows and the next one resumes there.
type loopJoin struct {
	*fromJoin
	left, right rowset.BatchCursor
	on          Compiled
	env         Env

	built     bool
	rightRows []rowset.Row
	lb        rowset.Batch // current left batch
	li        int          // current left row: lb.Row(li)
	ri        int          // next right row to pair it with
	matched   bool         // the current left row has joined at least once
	probe     rowset.Row
	outBuf    []rowset.Row
}

func (j *loopJoin) NextBatch() (rowset.Batch, error) {
	if !j.built {
		rows, err := drainRows(j.right)
		if err != nil {
			return rowset.Batch{}, err
		}
		j.rightRows, j.built = rows, true
	}
	width := j.schema.Len()
	out := j.outBuf[:0]
	for len(out) < rowset.DefaultBatchSize {
		if j.li >= j.lb.Len() {
			b, err := j.left.NextBatch()
			if err != nil {
				return rowset.Batch{}, err
			}
			if b.Empty() {
				break
			}
			j.lb, j.li, j.ri, j.matched = b, 0, 0, false
		}
		l := j.lb.Row(j.li)
		for j.ri < len(j.rightRows) && len(out) < rowset.DefaultBatchSize {
			r := j.rightRows[j.ri]
			j.ri++
			if j.on != nil {
				j.probe = append(append(j.probe[:0], l...), r...)
				j.env.Row = j.probe
				ok, err := j.on.Test(&j.env)
				if err != nil {
					return rowset.Batch{}, err
				}
				if !ok {
					continue
				}
				j.matched = true
			}
			out = append(out, j.fill(make(rowset.Row, width), l, r))
		}
		if j.ri < len(j.rightRows) {
			break // out is full mid-row: resume at (li, ri) on the next pull
		}
		if !j.matched && j.kind == JoinLeft {
			out = append(out, j.fill(make(rowset.Row, width), l, nil))
		}
		j.li, j.ri, j.matched = j.li+1, 0, false
	}
	j.outBuf = out
	if len(out) == 0 {
		return rowset.Batch{}, nil
	}
	return rowset.Batch{Rows: out}, nil
}

func (j *loopJoin) Schema() *rowset.Schema { return j.schema }

func (j *loopJoin) Close() error {
	j.rightRows, j.lb = nil, rowset.Batch{}
	err := j.left.Close()
	if rerr := j.right.Close(); err == nil {
		err = rerr
	}
	return err
}
