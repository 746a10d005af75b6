package sqlengine

// Join operators. Both keep the left-major output order — left rows in their
// scan order, each followed by its matches in right scan order — so the
// partitions of a joined FROM clause merge to the rows of one front-to-back
// pass:
//
//   - hashJoin: an equi-join. The statement takes one read-only
//     storage.KeyIndex of the right input before its partitions run — a stored
//     table's cached one, or one built for the statement; each partition
//     probes it with its own range of the left input, a batch at a time, and
//     carves the batch's joined rows out of one value array.
//   - loopJoin: cross joins and general ON expressions; materializes the right
//     side once and streams the left, at most DefaultBatchSize joined rows per
//     pull. A statement with one runs as one partition.

import (
	"repro/internal/rowset"
	"repro/internal/storage"
)

// fill writes the values the statement reads of left row l and right row r
// (nil: the NULL half of an unmatched LEFT JOIN row) into row, which may hold
// an earlier batch's values, and returns it.
func (j *fromJoin) fill(row, l, r rowset.Row) rowset.Row {
	for k, o := range j.keepL {
		row[k] = l[o]
	}
	half := row[len(j.keepL):]
	if r == nil {
		clear(half)
		return row
	}
	for k, o := range j.keepR {
		half[k] = r[o]
	}
	return row
}

// hashJoin streams one partition's left input through the statement's shared
// key index. NULL keys never match (SQL equi-join semantics).
type hashJoin struct {
	*fromJoin
	left rowset.BatchCursor
	idx  *storage.KeyIndex
	// reuse lets the joined rows of one batch be written over by the next:
	// nothing downstream keeps them (source.reuseRows).
	reuse bool
	vals  []rowset.Value

	lb     rowset.Batch // current left batch
	hits   [][]int32    // its live rows' matches
	rest   int          // joined rows it has yet to yield
	li, mi int          // next pair: live row li, its match mi
	outBuf []rowset.Row
}

// NextBatch yields up to DefaultBatchSize joined rows. One pass over a left
// batch finds every row's matches and counts its joined rows; each output
// batch then carves its rows out of one value array, a fresh one unless
// reuse says the last batch's may be written over.
func (j *hashJoin) NextBatch() (rowset.Batch, error) {
	for j.rest == 0 {
		b, err := j.left.NextBatch()
		if err != nil || b.Empty() {
			return b, err
		}
		j.lb, j.li, j.mi, j.hits = b, 0, 0, j.hits[:0]
		for i := 0; i < b.Len(); i++ {
			m := j.idx.Lookup(b.Row(i)[j.lo])
			j.hits = append(j.hits, m)
			if j.rest += len(m); len(m) == 0 && j.kind == JoinLeft {
				j.rest++
			}
		}
	}
	n, width := min(j.rest, rowset.DefaultBatchSize), j.schema.Len()
	j.rest -= n
	if !j.reuse || cap(j.vals) < n*width {
		j.vals = make([]rowset.Value, n*width)
	}
	vals := j.vals[:n*width]
	out := j.outBuf[:0]
	for len(out) < n {
		l, m := j.lb.Row(j.li), j.hits[j.li]
		if len(m) == 0 && j.kind == JoinLeft {
			out = append(out, j.fill(vals[len(out)*width:][:width:width], l, nil))
		}
		for ; j.mi < len(m) && len(out) < n; j.mi++ {
			out = append(out, j.fill(vals[len(out)*width:][:width:width], l, j.idx.Rows[m[j.mi]]))
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
