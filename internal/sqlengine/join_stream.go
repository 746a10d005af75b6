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
	"sync/atomic"

	"repro/internal/par"
	"repro/internal/rowset"
	"repro/internal/storage"
)

// joinIndex is the hash index of a hash join's right input, built once per
// statement and then only read, by every partition at once. Its key table
// gives each distinct non-NULL key a dense id; the right rows of id are
// rows[pos[i]] for i in [offs[id], offs[id+1]), in scan order.
type joinIndex struct {
	keys *rowset.KeyTable
	offs []int32
	pos  []int32
	rows []rowset.Row
}

// buildJoinIndex indexes rows — the right input's stored rows, read in place —
// by column ord under kind. A LONG or DOUBLE key is read first, in morsels of
// morselRows rows on up to e.Workers goroutines that poll ctx between morsels:
// the row header, interface and box per row that miss the cache. Its ids are
// then given on one goroutine. Any other key, or a numeric column holding a
// value with no number key (a view's LONG column may hold TEXT), is added by
// its value on one goroutine.
func (e *Engine) buildJoinIndex(ctx context.Context, rows []rowset.Row, ord int, kind rowset.KeyKind, morselRows int) (*joinIndex, error) {
	// Room for a key per four rows: a foreign key's table grows no more.
	x := &joinIndex{keys: rowset.NewKeyTable(kind, len(rows)/4), rows: rows}
	ids := make([]int32, len(rows)) // -1: NULL, which never matches in an equi-join
	ranges := storage.MorselRanges(len(rows), morselRows)
	byValue := kind != rowset.KeyLong && kind != rowset.KeyFloat
	if !byValue {
		nums := make([]uint64, len(rows))
		var slow atomic.Bool
		err := par.NewForks(e.Workers).Run(ctx, len(ranges), func(m int, _ bool) error {
			noNum := false
			for i := ranges[m].Lo; i < ranges[m].Hi; i++ {
				v := rows[i][ord]
				k, ok := kind.NumKey(v)
				if nums[i] = k; v == nil {
					ids[i] = -1
				} else if !ok {
					noNum = true
				}
			}
			if noNum {
				slow.Store(true)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if byValue = slow.Load(); !byValue {
			for i, id := range ids {
				if id == 0 {
					ids[i] = x.keys.AddNum(nums[i])
				}
			}
		}
	}
	if byValue {
		for _, m := range ranges {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for i := m.Lo; i < m.Hi; i++ {
				ids[i] = -1
				if v := rows[i][ord]; v != nil {
					ids[i] = x.keys.Add(v)
				}
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

	lb     rowset.Batch // current left batch
	hits   [][]int32    // its live rows' matches
	rest   int          // joined rows it has yet to yield
	li, mi int          // next pair: live row li, its match mi
	outBuf []rowset.Row
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
				if id, ok := j.idx.keys.Find(v); ok {
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
