package sqlengine

// Streaming join operators. All three preserve the exact output order of the
// old materialized join (left-major: left rows in their scan order, each
// followed by its matches in right scan order) so results stay byte-identical:
//
//   - hashJoinStream: equi-join that builds a hash table over the right input
//     and probes left rows a batch at a time — the probe side never
//     materializes.
//   - hashJoinBuildLeft: equi-join that builds over the LEFT input when a
//     cardinality hint proves it is the smaller side. Building left while
//     emitting left-major forces full materialization, so this strategy is
//     chosen only when the build-side saving (a smaller hash table) is known,
//     not guessed.
//   - loopJoin: cross joins and general ON expressions; materializes the right
//     side once and streams the left, at most DefaultBatchSize joined rows per
//     pull.

import (
	"context"

	"repro/internal/par"
	"repro/internal/rowset"
	"repro/internal/storage"
)

// newJoinCursor picks a join strategy for one FROM step, reporting the choice
// ("build=left", "build=right", or "loop") for span labels. Exact cursor
// sizes decide the hash-join build side when both are known; otherwise the
// planner's cardinality estimates (lest/rest, negative = unknown) stand in,
// turning the build-side choice into a cost-based decision instead of a
// build-right default. workers bounds the parallel key precompute of a large
// hash-join build, which cancelling ctx stops. Both inputs are owned by the
// returned cursor (closed on Close or exhaustion); on error the caller still
// owns them.
func newJoinCursor(ctx context.Context, left, right rowset.BatchCursor, kind JoinKind, on Expr, lest, rest, workers int) (rowset.BatchCursor, string, error) {
	schema, err := concatSchemas(left.Schema(), right.Schema())
	if err != nil {
		return nil, "", err
	}
	if kind != JoinCross {
		if lo, ro, ok := equiJoinOrdinals(on, left.Schema(), right.Schema()); ok {
			if buildLeft(cursorSize(left), cursorSize(right), lest, rest) {
				return &hashJoinBuildLeft{
					ctx: ctx, left: left, right: right, schema: schema,
					lo: lo, ro: ro, leftOuter: kind == JoinLeft, workers: workers,
				}, "build=left", nil
			}
			return &hashJoinStream{
				ctx: ctx, left: left, right: right, schema: schema,
				lo: lo, ro: ro, leftOuter: kind == JoinLeft, workers: workers,
				nullRight: make(rowset.Row, right.Schema().Len()),
			}, "build=right", nil
		}
	}
	lj := &loopJoin{
		left: left, right: right, schema: schema,
		nullRight: make(rowset.Row, right.Schema().Len()),
		probe:     make(rowset.Row, 0, schema.Len()),
	}
	if kind != JoinCross {
		lj.on = Compile(on, schema, nil)
		lj.leftOuter = kind == JoinLeft
	}
	return lj, "loop", nil
}

// buildLeft decides the hash-join build side: exact cursor sizes win, the
// planner's estimates fill in for unknowns, and build-right remains the
// default when neither side's cardinality is established.
func buildLeft(ls, rs, lest, rest int) bool {
	if ls < 0 {
		ls = lest
	}
	if rs < 0 {
		rs = rest
	}
	return ls >= 0 && rs >= 0 && ls < rs
}

// joinRows concatenates a left and right half into one output row.
func joinRows(l, r rowset.Row) rowset.Row {
	row := make(rowset.Row, 0, len(l)+len(r))
	row = append(row, l...)
	return append(row, r...)
}

// hashJoinStream drains the right side into a hash table on first pull, then
// streams left batches through it. NULL keys never match (SQL equi-join
// semantics), matching the filter the build loop applies.
type hashJoinStream struct {
	ctx         context.Context // the statement's, for the parallel key precompute
	left, right rowset.BatchCursor
	schema      *rowset.Schema
	lo, ro      int
	leftOuter   bool
	nullRight   rowset.Row
	workers     int // parallel key workers for the build side (0 = sequential)

	built   bool
	ht      map[string][]rowset.Row
	scratch []byte
	outBuf  []rowset.Row
}

func (j *hashJoinStream) build() error {
	rows, err := drainRows(j.right)
	if err != nil {
		return err
	}
	keys, err := buildKeys(j.ctx, rows, j.ro, j.workers)
	if err != nil {
		return err
	}
	j.ht = make(map[string][]rowset.Row, len(rows))
	for i, r := range rows {
		if r[j.ro] == nil {
			continue // NULL never matches in an equi-join
		}
		j.ht[keys[i]] = append(j.ht[keys[i]], r)
	}
	j.built = true
	return nil
}

// parallelKeyMin is the build-side row count below which computing hash keys
// on parallel workers costs more than it saves.
const parallelKeyMin = 4096

// buildKeys precomputes each row's join key ("" for NULL, which the insert
// loops skip). Key rendering is the CPU-bound part of a hash-join build, so
// large build sides compute keys on parallel workers over contiguous ranges;
// the hash-table INSERTION afterward stays sequential in row order, keeping
// bucket order — and therefore probe output order — identical to a
// sequential build. Cancelling ctx abandons the precompute.
func buildKeys(ctx context.Context, rows []rowset.Row, ord, workers int) ([]string, error) {
	keys := make([]string, len(rows))
	fill := func(lo, hi int) {
		var scratch []byte
		for i := lo; i < hi; i++ {
			if v := rows[i][ord]; v != nil {
				scratch = rowset.AppendKey(scratch[:0], v)
				keys[i] = string(scratch)
			}
		}
	}
	if workers > 1 && len(rows) >= parallelKeyMin {
		ms := storage.MorselRanges(len(rows), 0)
		err := par.ForEachCtx(ctx, len(ms), workers, func(mi int) error {
			fill(ms[mi].Lo, ms[mi].Hi)
			return nil
		})
		return keys, err
	}
	fill(0, len(rows))
	return keys, nil
}

// NextBatch probes a whole left batch against the hash table, assembling the
// joined rows into a reused output buffer. A batch's worth of probes per
// interface call; the joined rows themselves are freshly allocated (they are
// result rows, retained by consumers).
func (j *hashJoinStream) NextBatch() (rowset.Batch, error) {
	if !j.built {
		if err := j.build(); err != nil {
			return rowset.Batch{}, err
		}
	}
	for {
		b, err := j.left.NextBatch()
		if err != nil || b.Empty() {
			return b, err
		}
		out := j.outBuf[:0]
		n := b.Len()
		for i := 0; i < n; i++ {
			l := b.Row(i)
			var matches []rowset.Row
			if l[j.lo] != nil {
				// map[string(bytes)] probes compile without materializing the key.
				matches = j.ht[string(rowset.AppendKey(j.scratch[:0], l[j.lo]))]
			}
			if len(matches) == 0 {
				if j.leftOuter {
					out = append(out, joinRows(l, j.nullRight))
				}
				continue
			}
			for _, r := range matches {
				out = append(out, joinRows(l, r))
			}
		}
		j.outBuf = out
		if len(out) == 0 {
			continue // no left row in this batch matched: keep pulling
		}
		return rowset.Batch{Rows: out}, nil
	}
}

func (j *hashJoinStream) Schema() *rowset.Schema { return j.schema }

func (j *hashJoinStream) Close() error {
	j.ht = nil
	err := j.left.Close()
	if rerr := j.right.Close(); err == nil {
		err = rerr
	}
	return err
}

// hashJoinBuildLeft builds the hash table over the left (smaller) side,
// mapping keys to left row positions, then drains the right side once,
// collecting each left row's matches. Output is emitted left-major afterward,
// so the result order is identical to probing left-to-right.
type hashJoinBuildLeft struct {
	ctx         context.Context // the statement's, for the parallel key precompute
	left, right rowset.BatchCursor
	schema      *rowset.Schema
	lo, ro      int
	leftOuter   bool
	workers     int // parallel key workers for the build side (0 = sequential)

	out []rowset.Row
	oi  int
	ran bool
}

func (j *hashJoinBuildLeft) run() error {
	defer j.left.Close()  //nolint:errcheck // drained to exhaustion
	defer j.right.Close() //nolint:errcheck // drained to exhaustion
	j.ran = true

	leftRows, err := drainRows(j.left)
	if err != nil {
		return err
	}
	keys, err := buildKeys(j.ctx, leftRows, j.lo, j.workers)
	if err != nil {
		return err
	}
	ht := make(map[string][]int, len(leftRows))
	for i, l := range leftRows {
		if l[j.lo] == nil {
			continue // NULL never matches
		}
		ht[keys[i]] = append(ht[keys[i]], i)
	}
	matches := make([][]rowset.Row, len(leftRows))
	var scratch []byte
	for {
		b, err := j.right.NextBatch()
		if err != nil {
			return err
		}
		if b.Empty() {
			break
		}
		n := b.Len()
		for i := 0; i < n; i++ {
			r := b.Row(i)
			if r[j.ro] == nil {
				continue
			}
			for _, li := range ht[string(rowset.AppendKey(scratch[:0], r[j.ro]))] {
				matches[li] = append(matches[li], r)
			}
		}
	}
	var nullRight rowset.Row
	if j.leftOuter {
		nullRight = make(rowset.Row, j.right.Schema().Len())
	}
	for i, l := range leftRows {
		if len(matches[i]) == 0 {
			if j.leftOuter {
				j.out = append(j.out, joinRows(l, nullRight))
			}
			continue
		}
		for _, r := range matches[i] {
			j.out = append(j.out, joinRows(l, r))
		}
	}
	return nil
}

// NextBatch streams the materialized output in zero-copy windows.
func (j *hashJoinBuildLeft) NextBatch() (rowset.Batch, error) {
	if !j.ran {
		if err := j.run(); err != nil {
			return rowset.Batch{}, err
		}
	}
	if j.oi >= len(j.out) {
		return rowset.Batch{}, nil
	}
	hi := j.oi + rowset.DefaultBatchSize
	if hi > len(j.out) {
		hi = len(j.out)
	}
	b := rowset.Batch{Rows: j.out[j.oi:hi]}
	j.oi = hi
	return b, nil
}

func (j *hashJoinBuildLeft) Schema() *rowset.Schema { return j.schema }

func (j *hashJoinBuildLeft) Close() error {
	j.oi, j.out = 0, nil
	err := j.left.Close()
	if rerr := j.right.Close(); err == nil {
		err = rerr
	}
	return err
}

// loopJoin handles cross joins (on == nil: every pair) and arbitrary ON
// expressions. The right side is materialized once; left batches stream
// through it with a reusable probe row for ON evaluation. The position in the
// pair space — left batch, left row, right row — lives in the cursor, so a
// pull stops at DefaultBatchSize joined rows and the next one resumes there.
type loopJoin struct {
	left, right rowset.BatchCursor
	schema      *rowset.Schema
	on          Compiled
	leftOuter   bool
	env         Env
	nullRight   rowset.Row

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
			out = append(out, joinRows(l, r))
		}
		if j.ri < len(j.rightRows) {
			break // out is full mid-row: resume at (li, ri) on the next pull
		}
		if !j.matched && j.leftOuter {
			out = append(out, joinRows(l, j.nullRight))
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
