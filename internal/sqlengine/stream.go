package sqlengine

// This file holds the pull-based operators of the SELECT pipeline (exec.go
// assembles them) and the planning of its source half: the FROM clause
// resolved into scans and joins, index pushdown, and the partition rule. Every
// operator speaks rowset.BatchCursor and nothing else; the row-at-a-time
// rowset.Cursor survives only at the package's edges (storage table cursors in
// DELETE/UPDATE, materialized rowsets).
//
// Operators that pipeline: scan, filter, join probes, projection, DISTINCT,
// and TOP (which stops pulling — and therefore stops all upstream work — after
// N rows). Operators that materialize, because their semantics require seeing
// every input row first: ORDER BY, GROUP BY, and a join's right input.
//
// Scans are index-aware: a WHERE conjunct of the form `col = literal` whose
// column resolves to exactly one FROM entry declared indexed is answered by a
// probe of the table's key index (O(bucket) instead of O(table)) and removed
// from the residual filter. Pushdown is deliberately conservative — see
// planPushdown for the soundness rules.

import (
	"context"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rowset"
	"repro/internal/storage"
)

// ---------- generic cursors ----------

// sliceCursor streams a pre-built row slice under an arbitrary schema in
// zero-copy DefaultBatchSize windows. Rows are shared, never copied.
type sliceCursor struct {
	schema *rowset.Schema
	rows   []rowset.Row
	i      int // rows handed out, which a scan span counts
}

func newSliceCursor(schema *rowset.Schema, rows []rowset.Row) *sliceCursor {
	return &sliceCursor{schema: schema, rows: rows}
}

func (c *sliceCursor) NextBatch() (rowset.Batch, error) {
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

func (c *sliceCursor) Schema() *rowset.Schema { return c.schema }

func (c *sliceCursor) Close() error {
	c.rows = nil
	return nil
}

// Size reports the exact number of rows the cursor will yield.
func (c *sliceCursor) Size() int { return len(c.rows) }

// cancelCursor threads context cancellation into the pull pipeline: upstream
// batches are doled out in windows of at most pollEvery rows with a poll of
// ctx.Done() before each, so a cancelled statement stops pulling — and
// therefore stops every upstream operator — within pollEvery rows instead of
// running the scan to completion. forEachPartition inserts it only when the
// context is actually cancellable (Done() != nil), keeping the common
// Background path allocation- and branch-free.
type cancelCursor struct {
	src  rowset.BatchCursor
	ctx  context.Context
	done <-chan struct{}

	pending rowset.Batch // upstream batch being doled out
	wlo     int          // first live row of pending not yet handed on
}

// pollEvery is the row stride between cancellation polls: frequent enough
// that a runaway join aborts promptly, sparse enough that the select adds
// no measurable per-row cost.
const pollEvery = 64

func (c *cancelCursor) NextBatch() (rowset.Batch, error) {
	for {
		// One poll per loop turn: before the first window of every upstream
		// batch (which also aborts a pre-cancelled statement before any row
		// flows) and again before each subsequent window.
		select {
		case <-c.done:
			return rowset.Batch{}, c.ctx.Err()
		default:
		}
		if c.wlo < c.pending.Len() {
			hi := c.wlo + pollEvery
			if hi > c.pending.Len() {
				hi = c.pending.Len()
			}
			b := c.pending.Slice(c.wlo, hi)
			c.wlo = hi
			return b, nil
		}
		b, err := c.src.NextBatch()
		if err != nil || b.Empty() {
			return b, err
		}
		c.pending, c.wlo = b, 0
	}
}

func (c *cancelCursor) Schema() *rowset.Schema { return c.src.Schema() }
func (c *cancelCursor) Close() error           { return c.src.Close() }

// sized is implemented by cursors that know how many rows they will yield at
// most (slices, and a span's cursor over one): drainRows presizes its output
// by it. A statement's projection drains into windows sized by the source
// (source.windows).
type sized interface{ Size() int }

// cursorSize returns the cursor's exact cardinality, or -1 when unknown.
func cursorSize(c rowset.BatchCursor) int {
	if s, ok := c.(sized); ok {
		return s.Size()
	}
	return -1
}

// drainRows pulls a cursor to exhaustion, returning the yielded rows. The
// cursor is closed in every case. Live rows are copied out of the
// producer-owned batches, which is safe to retain because engine rows are
// immutable.
func drainRows(c rowset.BatchCursor) ([]rowset.Row, error) {
	defer c.Close() //nolint:errcheck // Close after exhaustion is a no-op
	var rows []rowset.Row
	if n := cursorSize(c); n > 0 {
		rows = make([]rowset.Row, 0, n) // upper bound: filters shrink it
	}
	for {
		b, err := c.NextBatch()
		if err != nil {
			return nil, err
		}
		if b.Empty() {
			return rows, nil
		}
		rows = appendLive(rows, b)
	}
}

// appendLive copies the batch's live rows onto dst.
func appendLive(dst []rowset.Row, b rowset.Batch) []rowset.Row {
	if b.Sel == nil {
		return append(dst, b.Rows...)
	}
	for _, i := range b.Sel {
		dst = append(dst, b.Rows[i])
	}
	return dst
}

// ---------- span accounting ----------

// opSpan is one streamed operator's span plus the cursors that count for it,
// one per partition, each written only by its partition's goroutine: part0
// serves a one-partition statement (and a join's right input, read once at
// plan time), and a partitioned statement's other partitions get rest,
// allocated once per operator. The span was added at plan time; the
// statement's goroutine sums the cursors onto it (flush) once every
// partition has finished, which is before anyone reads the tree (EXPLAIN
// ANALYZE reads after execution, the statement store copies trees only after
// the statement finishes). Partition workers therefore never touch the span.
type opSpan struct {
	sp    obs.SpanRef
	timed bool // EXPLAIN ANALYZE's detailed mode: two clock reads per pull
	part0 opCursor
	rest  []opCursor
}

// wrap decorates partition i's operator cursor with span accounting: the
// rows that actually flow through it and, when timed, its inclusive time (its
// own work plus upstream pulls). A nil opSpan — the statement is untraced —
// returns c unchanged, so untraced execution pays nothing. An untimed span
// needs no cursor of its own over a slice scan, which knows how many rows it
// handed out, or over another span's cursor — an operator with no cursor of
// its own, like a filter whose whole WHERE went into an index probe, counts
// what that cursor counts.
func (o *opSpan) wrap(i int, c rowset.BatchCursor) rowset.BatchCursor {
	if o == nil {
		return c
	}
	oc := &o.part0
	if i > 0 {
		oc = &o.rest[i-1]
	}
	if !o.timed {
		switch c := c.(type) {
		case *opCursor:
			*oc = opCursor{of: c}
			return c
		case *sliceCursor:
			*oc = opCursor{scan: c}
			return c
		}
	}
	*oc = opCursor{src: c, timed: o.timed}
	return oc
}

// isTimed reports whether the span times its operator (false when nil).
func (o *opSpan) isTimed() bool { return o != nil && o.timed }

// tally records partition i's counts, and its time when timed, for an
// operator that has no cursor of its own to count them: one its consumer
// counted, or a hash join's index build.
func (o *opSpan) tally(i int, rows, batches int64, elapsed time.Duration) {
	if o == nil {
		return
	}
	oc := &o.part0
	if i > 0 {
		oc = &o.rest[i-1]
	}
	*oc = opCursor{rows: rows, batches: batches, elapsed: elapsed}
}

// flush sums the partitions' counts onto the span; over several partitions
// Elapsed is the sum of their inclusive times.
func (o *opSpan) flush() {
	c := o.part0.counts()
	for i := range o.rest {
		p := o.rest[i].counts()
		c.rows, c.batches, c.elapsed = c.rows+p.rows, c.batches+p.batches, c.elapsed+p.elapsed
	}
	o.sp.SetCounts(c.rows, c.batches, c.elapsed, o.timed)
}

type opCursor struct {
	src   rowset.BatchCursor
	timed bool
	// Set instead of src: the cursor whose counts these are, or the slice
	// scan they are read off.
	of   *opCursor
	scan *sliceCursor

	rows, batches int64
	elapsed       time.Duration
}

func (c *opCursor) NextBatch() (rowset.Batch, error) {
	var start time.Duration
	if c.timed {
		start = obs.Mono()
	}
	b, err := c.src.NextBatch()
	if c.timed {
		c.elapsed += obs.Mono() - start
	}
	if !b.Empty() {
		c.rows += int64(b.Len())
		c.batches++
	}
	return b, err
}

func (c *opCursor) counts() opCursor {
	switch {
	case c.of != nil:
		return c.of.counts()
	case c.scan != nil:
		n := int64(c.scan.i)
		return opCursor{rows: n, batches: (n + rowset.DefaultBatchSize - 1) / rowset.DefaultBatchSize}
	}
	return *c
}

func (c *opCursor) Schema() *rowset.Schema { return c.src.Schema() }
func (c *opCursor) Close() error           { return c.src.Close() }
func (c *opCursor) Size() int              { return cursorSize(c.src) }

// ---------- frames ----------

// frames carries a partition's per-row frame values (Env.Ext) from the bind
// operator that makes them to the filter and projection above it: ext[i]
// belongs to Rows[i] of the batch the bind operator returned last, so the
// values live exactly as long as that batch. A nil *frames — every plain
// SELECT — binds nothing.
type frames struct{ ext []any }

// load points env at live row i of b and returns the row's position in b.Rows.
func (f *frames) load(env *Env, b rowset.Batch, i int) int {
	if b.Sel != nil {
		i = b.Sel[i]
	}
	env.Row = b.Rows[i]
	if f != nil {
		env.Ext = f.ext[i]
	}
	return i
}

// bindCursor is the embedder's operator of a Relation query: it asks the
// relation's binder for the frame values of each source batch, once, before
// the filter, so WHERE, select items and ORDER BY keys of one row share them.
// A batch a streamed input's WHERE selected from is first closed up into live,
// so the binder sees live rows only.
type bindCursor struct {
	src  rowset.BatchCursor
	bind func([]rowset.Row, []any) (int, error)
	frames
	live   []rowset.Row
	failed error // see cutShort
}

func (c *bindCursor) NextBatch() (rowset.Batch, error) {
	if c.failed != nil {
		return rowset.Batch{}, c.failed
	}
	b, err := c.src.NextBatch()
	if err != nil || b.Empty() {
		return b, err
	}
	if b.Sel != nil {
		c.live = appendLive(c.live[:0], b)
		b = rowset.Batch{Rows: c.live}
	}
	if cap(c.ext) < len(b.Rows) {
		c.ext = make([]any, len(b.Rows))
	}
	c.ext = c.ext[:len(b.Rows)]
	if n, err := c.bind(b.Rows, c.ext); err != nil {
		return cutShort(b, n, err, &c.failed)
	}
	return b, nil
}

func (c *bindCursor) Schema() *rowset.Schema { return c.src.Schema() }
func (c *bindCursor) Close() error           { return c.src.Close() }

// cutShort is how a per-row operator reports an error met on live row n of
// the batch it is producing: the n rows before it go downstream first and the
// error is returned by the next pull (the operator keeps it in *failed), so
// errors surface — and a TOP stops short of them — in row order, exactly as if
// the operators ran one row at a time.
func cutShort(b rowset.Batch, n int, err error, failed *error) (rowset.Batch, error) {
	if n == 0 {
		return rowset.Batch{}, err
	}
	*failed = err
	return b.Slice(0, n), nil
}

// ---------- filter ----------

type filterCursor struct {
	src    rowset.BatchCursor
	cond   Compiled // nil passes everything (the whole WHERE was pushed into a scan)
	frames *frames
	env    Env
	sel    []int
	failed error // see cutShort
}

// NextBatch filters a whole upstream batch with a selection vector: survivors
// are marked, not copied. The returned batch aliases the upstream batch's
// rows, which stay valid until this cursor's next pull — exactly the window
// the ownership rule grants the consumer.
func (c *filterCursor) NextBatch() (rowset.Batch, error) {
	if c.failed != nil {
		return rowset.Batch{}, c.failed
	}
	for {
		b, err := c.src.NextBatch()
		if err != nil || b.Empty() {
			return b, err
		}
		if c.cond == nil {
			return b, nil
		}
		sel := c.sel[:0]
		n := b.Len()
		for i := 0; i < n; i++ {
			ri := c.frames.load(&c.env, b, i)
			ok, err := c.cond.Test(&c.env)
			if err != nil {
				c.sel = sel
				return cutShort(rowset.Batch{Rows: b.Rows, Sel: sel}, len(sel), err, &c.failed)
			}
			if ok {
				sel = append(sel, ri)
			}
		}
		c.sel = sel
		if len(sel) == 0 {
			continue // fully filtered batch: keep pulling
		}
		return rowset.Batch{Rows: b.Rows, Sel: sel}, nil
	}
}

func (c *filterCursor) Schema() *rowset.Schema { return c.src.Schema() }
func (c *filterCursor) Close() error           { return c.src.Close() }

// ---------- limit / distinct ----------

// limitCursor passes the first n live rows on and then releases upstream
// state without draining it: the early exit costs at most the one upstream
// batch the nth row arrived in.
type limitCursor struct {
	src rowset.BatchCursor
	n   int
}

func (c *limitCursor) NextBatch() (rowset.Batch, error) {
	if c.n <= 0 {
		return rowset.Batch{}, c.src.Close()
	}
	b, err := c.src.NextBatch()
	if err != nil || b.Empty() {
		return b, err
	}
	if b.Len() > c.n {
		b = b.Slice(0, c.n)
	}
	c.n -= b.Len()
	return b, nil
}

func (c *limitCursor) Schema() *rowset.Schema { return c.src.Schema() }
func (c *limitCursor) Close() error           { return c.src.Close() }

// distinctCursor keeps each row's first occurrence: a selection vector over
// the upstream batch marks the rows not seen before.
type distinctCursor struct {
	src     rowset.BatchCursor
	seen    map[string]struct{}
	scratch []byte
	sel     []int
}

func newDistinctCursor(src rowset.BatchCursor) *distinctCursor {
	return &distinctCursor{src: src, seen: make(map[string]struct{})}
}

func (c *distinctCursor) NextBatch() (rowset.Batch, error) {
	for {
		b, err := c.src.NextBatch()
		if err != nil || b.Empty() {
			return b, err
		}
		sel := c.sel[:0]
		n := b.Len()
		for i := 0; i < n; i++ {
			ri := i
			if b.Sel != nil {
				ri = b.Sel[i]
			}
			buf := c.scratch[:0]
			for _, v := range b.Rows[ri] {
				buf = rowset.AppendKeyPart(buf, v)
			}
			c.scratch = buf
			if _, dup := c.seen[string(buf)]; dup {
				continue
			}
			c.seen[string(buf)] = struct{}{}
			sel = append(sel, ri)
		}
		c.sel = sel
		if len(sel) == 0 {
			continue // nothing new in this batch: keep pulling
		}
		return rowset.Batch{Rows: b.Rows, Sel: sel}, nil
	}
}

func (c *distinctCursor) Schema() *rowset.Schema { return c.src.Schema() }
func (c *distinctCursor) Close() error           { return c.src.Close() }

// tailRows applies the statement's DISTINCT and TOP to materialized rows —
// merged, sorted or aggregated ones. Neither consults the schema of what it
// trims.
func tailRows(rows []rowset.Row, sel *SelectStmt) ([]rowset.Row, error) {
	return drainRows(tailCursor(newSliceCursor(nil, rows), sel))
}

// tailCursor applies the statement's streaming DISTINCT and TOP to cur.
func tailCursor(cur rowset.BatchCursor, sel *SelectStmt) rowset.BatchCursor {
	if sel.Distinct {
		cur = newDistinctCursor(cur)
	}
	if sel.Top != nil {
		cur = &limitCursor{src: cur, n: *sel.Top}
	}
	return cur
}

// ---------- scans and pushdown ----------

// pushedEq is a `col = literal` predicate applied at the scan through the
// table's key index of the column instead of in the filter operator.
type pushedEq struct {
	col string // bare column name in the table schema
	ord int
	val rowset.Value
	idx *storage.KeyIndex
}

// compiledScan is one FROM entry resolved against the catalog before any
// cursor opens: its qualified schema, the backing table or materialized view,
// and (after planPushdown) an optional index-applied equality.
type compiledScan struct {
	ref    TableRef
	schema *rowset.Schema
	tbl    *storage.Table // nil for views
	view   *rowset.Rowset // nil for tables
	pushed *pushedEq

	// estimate is the scan's expected output cardinality: exact for views and
	// unpushed table scans, the key index's EqEstimate for pushed equalities.
	// EXPLAIN shows it, and plans the fan-out of a whole-table scan by it.
	estimate int
}

func (e *Engine) resolveScan(ctx context.Context, ref TableRef) (*compiledScan, error) {
	cs := &compiledScan{ref: ref}
	var base *rowset.Schema
	if view, ok := e.views.get(ref.Name); ok {
		// Views are registered only after their query validates, and can
		// reference only pre-existing views, so expansion cannot cycle.
		vr, err := e.QueryContext(ctx, view)
		if err != nil {
			return nil, fmt.Errorf("sqlengine: view %s: %w", ref.Name, err)
		}
		cs.view = vr
		cs.estimate = vr.Len()
		base = vr.Schema()
	} else {
		tbl, err := e.DB.Table(ref.Name)
		if err != nil {
			return nil, err
		}
		cs.tbl = tbl
		cs.estimate = tbl.Len()
		base = tbl.Schema()
	}
	var err error
	cs.schema, err = e.qualify(base, ref.AliasOrName(), cs.tbl != nil)
	return cs, err
}

// qualifiedKey is a base schema under a FROM qualifier.
type qualifiedKey struct {
	base *rowset.Schema
	q    string
}

// maxQualified bounds the engine's cache of qualified table schemas: a full
// cache starts over.
const maxQualified = 256

// qualify returns base's schema with every column named "q.column". A table's
// schema never changes, so with cache its qualified schema is kept, keyed by
// the table's schema and q; a view's is new on every statement.
func (e *Engine) qualify(base *rowset.Schema, q string, cache bool) (*rowset.Schema, error) {
	key := qualifiedKey{base, q}
	var cached map[qualifiedKey]*rowset.Schema
	if p := e.qualified.Load(); p != nil {
		cached = *p
	}
	if s, ok := cached[key]; ok {
		return s, nil
	}
	cols := make([]rowset.Column, base.Len())
	for i, c := range base.Columns {
		cols[i] = rowset.Column{Name: q + "." + c.Name, Type: c.Type, Nested: c.Nested}
	}
	schema, err := rowset.NewSchema(cols...)
	if err != nil {
		return nil, fmt.Errorf("sqlengine: %w (duplicate alias %q?)", err, q)
	}
	if cache {
		// Copy on write, so readers take no lock; a lost race drops an entry.
		m := make(map[qualifiedKey]*rowset.Schema, len(cached)+1)
		if len(cached) < maxQualified {
			maps.Copy(m, cached)
		}
		m[key] = schema
		e.qualified.Store(&m)
	}
	return schema, nil
}

// bare reports whether the scan reads a stored table whole: no view, no
// pushed index probe.
func (cs *compiledScan) bare() bool { return cs.view == nil && cs.pushed == nil }

// rows returns the scan's input: the view's materialized rows, the index
// bucket of a pushed equality, or the table's snapshot. Rows are shared and
// un-renormalized: table rows were coerced on insert, view rows were
// normalized when the view query materialized.
func (cs *compiledScan) rows() []rowset.Row {
	switch {
	case cs.view != nil:
		return cs.view.Rows()
	case cs.pushed != nil:
		return cs.pushed.idx.LookupRows(cs.pushed.val)
	}
	return cs.tbl.Snapshot()
}

// scanLabel is the scan's span label: the FROM alias, the pushed index
// column (if any), the cardinality estimate, and the fan-out of its
// partitions.
func (e *Engine) scanLabel(cs *compiledScan, partitions int) obs.Label {
	l := obs.Label{Text: cs.ref.AliasOrName(), HasEst: true, Est: int64(cs.estimate)}
	if cs.pushed != nil {
		l.Index = cs.pushed.col
	}
	return e.fanout(l, partitions)
}

// fanout adds to l, when the input runs as more than one partition, the
// fan-out.
func (e *Engine) fanout(l obs.Label, partitions int) obs.Label {
	if partitions > 1 {
		l.Morsels, l.Workers = int32(partitions), int32(e.workers())
	}
	return l
}

// planPushdown splits the WHERE conjunction and pushes eligible equality
// conjuncts into their scans, returning the residual predicate (nil when
// everything was pushed). When several conjuncts could use an index on the
// same scan, the planner picks the most selective one by estimated output
// cardinality (rows / distinct values, from the column's key index, which
// the probe then reads), breaking ties toward the earliest conjunct. A
// conjunct is eligible only when ALL of these hold, each protecting an
// equivalence with evaluating the predicate post-scan:
//
//   - it has the shape `column = literal` (either order) with a non-NULL
//     literal — NULL never equals anything, and rows the index would drop for
//     a NULL probe are exactly the rows three-valued logic drops;
//   - the column resolves in exactly one FROM entry — if it resolves in
//     several, evaluation would fail with an ambiguity error, which pushdown
//     must not mask;
//   - that entry is a table (not a view) with the column declared indexed —
//     without an index the scan fallback does the same linear work the filter
//     operator would, so there is nothing to win;
//   - the entry is the first FROM item or joins with a non-LEFT join —
//     filtering the null-supplied side of a LEFT JOIN before the join would
//     turn dropped rows into NULL-extended ones;
//   - the literal's type matches the column's family (see indexableEq) —
//     index buckets are keyed by rowset.Key, which distinguishes some values
//     that Compare-based predicate equality does not (bool vs number, DATE at
//     sub-second precision), so cross-family probes could miss rows.
func planPushdown(ctx context.Context, where Expr, scans []*compiledScan) (Expr, error) {
	if where == nil {
		return nil, nil
	}
	conjuncts := splitAnd(where)
	type candidate struct {
		scan int
		eq   pushedEq
		est  int
	}
	cands := make([]*candidate, len(conjuncts))
	chosen := make(map[int]int) // scan index → index of its cheapest candidate conjunct
	for i, c := range conjuncts {
		si, eq, ok := matchPush(c, scans)
		if !ok {
			continue
		}
		typ := scans[si].schema.Column(eq.ord).Type
		var err error
		if eq.idx, _, err = scans[si].tbl.KeyIndex(ctx, eq.ord, rowset.KeyKindOf(typ, typ)); err != nil {
			return nil, err
		}
		est := eq.idx.EqEstimate()
		cands[i] = &candidate{scan: si, eq: eq, est: est}
		if j, have := chosen[si]; !have || est < cands[j].est {
			chosen[si] = i
		}
	}
	residual := conjuncts[:0]
	for i, c := range conjuncts {
		if cd := cands[i]; cd != nil && chosen[cd.scan] == i {
			cs := scans[cd.scan]
			cs.pushed = &cd.eq
			cs.estimate = cd.est
			continue
		}
		residual = append(residual, c)
	}
	return joinAnd(residual), nil
}

func splitAnd(e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == OpAnd {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	return []Expr{e}
}

func joinAnd(list []Expr) Expr {
	if len(list) == 0 {
		return nil
	}
	out := list[0]
	for _, e := range list[1:] {
		out = &Binary{Op: OpAnd, L: out, R: e}
	}
	return out
}

// matchPush tests one conjunct against the pushdown soundness rules without
// committing it, returning the target scan and the index probe it would
// become. Choosing among competing candidates for one scan is planPushdown's
// job.
func matchPush(c Expr, scans []*compiledScan) (int, pushedEq, bool) {
	b, ok := c.(*Binary)
	if !ok || b.Op != OpEq {
		return 0, pushedEq{}, false
	}
	var cr *ColumnRef
	var lit *Literal
	if x, ok := b.L.(*ColumnRef); ok {
		if l, ok := b.R.(*Literal); ok {
			cr, lit = x, l
		}
	} else if x, ok := b.R.(*ColumnRef); ok {
		if l, ok := b.L.(*Literal); ok {
			cr, lit = x, l
		}
	}
	if cr == nil {
		return 0, pushedEq{}, false
	}
	val := rowset.Normalize(lit.Val)
	if val == nil {
		return 0, pushedEq{}, false
	}
	target, ord := -1, -1
	for i, cs := range scans {
		if o, err := ResolveColumn(cs.schema, cr.Qualifier, cr.Name); err == nil {
			if target >= 0 {
				return 0, pushedEq{}, false // ambiguous across FROM entries
			}
			target, ord = i, o
		}
	}
	if target < 0 {
		return 0, pushedEq{}, false // unknown column: leave it for the filter to report
	}
	cs := scans[target]
	if cs.tbl == nil {
		return 0, pushedEq{}, false
	}
	if target > 0 && cs.ref.Kind == JoinLeft {
		return 0, pushedEq{}, false
	}
	col := cs.schema.Column(ord)
	if !indexableEq(col.Type, val) {
		return 0, pushedEq{}, false
	}
	bare := bareName(col.Name)
	if !cs.tbl.HasIndex(bare) {
		return 0, pushedEq{}, false
	}
	return target, pushedEq{col: bare, ord: ord, val: val}, true
}

// indexableEq reports whether probing an index bucket for v is equivalent to
// evaluating `col = v` on every row. Index buckets use rowset.Key, predicate
// equality uses rowset.Compare; the two agree within a type family but Key is
// finer across families (bool vs number), for DATE (Key keeps nanoseconds,
// Compare collapses to seconds) and between a LONG outside ±2^53 and a DOUBLE
// (Compare rounds the LONG), so only same-family scalar probes push, and a
// number meets the other numeric type only inside that range.
func indexableEq(colType rowset.Type, v rowset.Value) bool {
	switch colType {
	case rowset.TypeLong, rowset.TypeDouble:
		switch x := v.(type) {
		case int64:
			return colType == rowset.TypeLong || (x >= -rowset.MaxExactLong && x <= rowset.MaxExactLong)
		case float64:
			return colType == rowset.TypeDouble || math.Abs(x) < rowset.MaxExactLong
		default:
			return false
		}
	case rowset.TypeText:
		_, ok := v.(string)
		return ok
	case rowset.TypeBool:
		_, ok := v.(bool)
		return ok
	case rowset.TypeNull, rowset.TypeDate, rowset.TypeTable:
		// TypeDate: Key/Compare disagree below one second. TypeTable and
		// untyped columns: equality is not meaningful for index probes.
	}
	return false
}

// partitionRanges is the partition rule, a function of the statement and its
// input only (never of the worker count): a full scan — of a base table,
// alone or probing hash joins, or of the rows of an embedder's Relation — is
// cut into contiguous ranges of partRows rows; every other source — an index
// probe, a view, a loop or cross join — is one partition, as is a
// non-aggregating TOP without ORDER BY, whose early exit needs one
// front-to-back stream. nil means one partition: the whole input.
func partitionRanges(sel *SelectStmt, fullScan bool, rows, partRows int) []storage.Morsel {
	if !fullScan || rows <= partRows {
		return nil
	}
	if sel.Top != nil && len(sel.OrderBy) == 0 && !needsAggregate(sel) {
		return nil
	}
	if ranges := storage.MorselRanges(rows, partRows); len(ranges) > 1 {
		return ranges
	}
	return nil
}

// fromClause is a FROM clause resolved against the catalog before any cursor
// opens: its scans after index pushdown, the WHERE left to filter, its joins,
// and the schema of the rows it yields.
type fromClause struct {
	scans    []*compiledScan
	joins    []fromJoin // joins[i] joins scans[i+1] onto everything before it
	residual Expr
	schema   *rowset.Schema
}

// fromJoin is one join step: a hash join probing with left ordinal lo for
// right ordinal ro, or (hash false) a loop join evaluating ON (unless it is a
// cross join) over rows of onSchema — the left input's columns, then the
// right's. Its output rows hold
// only the columns the statement can read: keepL of the left input's, then
// keepR of the right's, under schema.
type fromJoin struct {
	kind         JoinKind
	hash         bool
	lo, ro       int
	key          rowset.KeyKind
	onSchema     *rowset.Schema
	keepL, keepR []int
	schema       *rowset.Schema
}

func (e *Engine) resolveFrom(ctx context.Context, sel *SelectStmt) (fromClause, error) {
	fc := fromClause{scans: make([]*compiledScan, len(sel.From))}
	for i, ref := range sel.From {
		cs, err := e.resolveScan(ctx, ref)
		if err != nil {
			return fc, err
		}
		fc.scans[i] = cs
	}
	var err error
	if fc.residual, err = planPushdown(ctx, sel.Where, fc.scans); err != nil {
		return fc, err
	}
	fc.schema = fc.scans[0].schema
	if len(fc.scans) == 1 {
		return fc, nil
	}
	read := readNames(sel)
	full := fc.schema // every column: its duplicates are the statement's error
	for _, cs := range fc.scans[1:] {
		if full, err = concatSchemas(full, cs.schema); err != nil {
			return fc, err
		}
		j := fromJoin{kind: cs.ref.Kind}
		if j.kind != JoinCross {
			j.lo, j.ro, j.hash = equiJoinOrdinals(cs.ref.On, fc.schema, cs.schema)
		}
		if j.hash {
			j.key = rowset.KeyKindOf(fc.schema.Column(j.lo).Type, cs.schema.Column(j.ro).Type)
		} else if j.onSchema, err = concatSchemas(fc.schema, cs.schema); err != nil {
			return fc, err
		}
		// A column only this hash join's ON, or an earlier one, reads is not
		// read after it.
		if j.hash && read != nil {
			Inspect(cs.ref.On, countRefs(read, -1))
		}
		var cols []rowset.Column
		j.keepL, cols = keepRead(fc.schema, read, nil)
		j.keepR, cols = keepRead(cs.schema, read, cols)
		if j.schema, err = rowset.NewSchema(cols...); err != nil {
			return fc, err
		}
		fc.schema = j.schema
		fc.joins = append(fc.joins, j)
	}
	return fc, nil
}

// readNames counts the references a statement makes to each lower-cased bare
// column name, or returns nil when a star reads every column.
func readNames(sel *SelectStmt) map[string]int {
	for _, it := range sel.Items {
		if it.Star {
			return nil
		}
	}
	read := make(map[string]int)
	inspectStatement(sel, countRefs(read, 1))
	return read
}

// countRefs is an Inspect visitor that adds d to read's count of every column
// reference's bare name.
func countRefs(read map[string]int, d int) func(Expr) bool {
	return func(e Expr) bool {
		if cr, ok := e.(*ColumnRef); ok {
			read[strings.ToLower(bareName(cr.Name))] += d
		}
		return true
	}
}

// keepRead returns the ordinals of the columns of schema a reference counted
// in read can resolve to — every one when read is nil — and appends the
// columns to cols. A reference resolves to a column only if their bare names
// match, so every resolution, ambiguity and unknown-column error stays as it
// was.
func keepRead(schema *rowset.Schema, read map[string]int, cols []rowset.Column) ([]int, []rowset.Column) {
	var keep []int
	for i, c := range schema.Columns {
		if read == nil || read[strings.ToLower(bareName(c.Name))] > 0 {
			keep = append(keep, i)
			cols = append(cols, c)
		}
	}
	return keep, cols
}

// cuttable reports whether the partition rule may cut the FROM clause: its
// first entry reads a whole base table and every join is a hash join, which
// each range probes on its own.
func (fc *fromClause) cuttable() bool {
	first := fc.scans[0]
	if first.tbl == nil || first.pushed != nil {
		return false
	}
	for _, j := range fc.joins {
		if !j.hash {
			return false
		}
	}
	return true
}

// source is the planned FROM/WHERE half of a SELECT: n partitions of input
// rows under one schema of "alias.column" names, and the compiled predicate
// left to filter them by after index pushdown (nil: nothing left), shared by
// every partition. Partitions are contiguous and ordered, so consuming them in
// index order reproduces a front-to-back scan.
type source struct {
	schema *rowset.Schema
	n      int
	open   func(i int) rowset.BatchCursor
	// ranges are the partitions' rows of the input (nil: one partition, all
	// of it), and size the most rows they yield all told; -1 when not known
	// (joins).
	ranges   []storage.Morsel
	size     int
	residual Compiled
	filter   *opSpan // non-nil iff the statement is traced and has a WHERE

	// Every operator span of the statement, for flushSpans: the first five
	// (a SELECT's scan, filter, project; a point prediction's scan, filter,
	// project, predict, project) in place, any further ones in more.
	ops  [5]opSpan
	nops int
	more []*opSpan

	// Set when the input is an embedder's Relation: its resolver, which every
	// expression of the statement compiles with, its per-partition binder, the
	// bind operator's span, and the type it declares for an all-NULL column
	// (the zero value is a SELECT's: rowset.TypeNull).
	resolve  Resolver
	bind     func(reuse bool) func([]rowset.Row, []any) (int, error)
	bindSpan *opSpan
	untyped  rowset.Type
	// reuseRows, set by forEachPartition, lets a hash join and a streamed
	// input's projection reuse their output rows from batch to batch; rewrites
	// says the source has either, so its rows may then be written over.
	reuseRows, rewrites bool
}

// span records an operator span in plan order, reading no clock (nil on an
// untraced statement), for an operator wrapped on parts partitions.
func (src *source) span(t *obs.Trace, kind string, label obs.Label, parts int) *opSpan {
	if t == nil {
		return nil
	}
	var o *opSpan
	if src.nops < len(src.ops) {
		o = &src.ops[src.nops]
		src.nops++
	} else {
		o = new(opSpan)
		src.more = append(src.more, o)
	}
	o.sp, o.timed = t.AddSpan(kind, label), t.Detailed()
	if parts > 1 {
		o.rest = make([]opCursor, parts-1)
	}
	return o
}

// flushSpans patches every operator span with what its cursors counted.
func (src *source) flushSpans() {
	for i := range src.ops[:src.nops] {
		src.ops[i].flush()
	}
	for _, o := range src.more {
		o.flush()
	}
}

// workers resolves the engine's worker bound (<= 0 means GOMAXPROCS).
func (e *Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Relation is a row source an embedder supplies in place of a FROM clause, for
// QueryRelation to run the filter → project or aggregate → ORDER BY / DISTINCT
// / TOP half of the pipeline over. The DMX provider's PREDICTION JOIN is one:
// the rows are the cases, the resolver gives model columns and prediction
// functions their meaning, and the binder tokenizes each case. Its browsing
// rowsets are others, with rows and a schema only.
type Relation struct {
	// Schema names the columns of the rows as expressions see them
	// ("alias.column", like a FROM entry's).
	Schema *rowset.Schema
	// The rows are Rows, or, when Input is set, what its SELECT yields,
	// planned inside the statement and streamed partition by partition.
	Rows  []rowset.Row
	Input *Input
	// Resolve serves what Schema cannot: see Resolver.
	Resolve Resolver
	// Bind is called once per partition, on the goroutine that runs it, and
	// returns that partition's binder. The binder is called exactly once for
	// every batch the partition reads, in order and before the filter, and
	// sets ext[i] — Env.Ext of rows[i] for WHERE, the select items, the ORDER
	// BY keys and the GROUP BY keys and aggregate arguments alike. On an error
	// it returns how many rows it bound before the failing one; those rows go
	// on, and the error surfaces after them. The values the binder hands out
	// must outlive the call. With reuse, the engine drops each with the batch
	// its row came in, so the binder may reuse them, and what they point to,
	// for the next batch, and once the partition is done it calls the binder
	// once more with no rows, after which the binder may hand what it reuses
	// to another partition. Without reuse — an aggregating statement keeps
	// each group's first frame — the engine may hold any value to the end.
	Bind func(reuse bool) func(rows []rowset.Row, ext []any) (int, error)
	// Kind and Label name the span of the relation's operator.
	Kind  string
	Label obs.Label
	// Untyped is the type declared for a computed output column no row gave a
	// value (a SELECT declares rowset.TypeNull).
	Untyped rowset.Type
}

// partition cuts rows — the statement's whole input when the source is a
// single scan — by the partition rule and returns the partitions' opener.
func (e *Engine) partition(src *source, sel *SelectStmt, schema *rowset.Schema, rows []rowset.Row, fullScan bool, partRows int) func(i int) rowset.BatchCursor {
	ranges := partitionRanges(sel, fullScan, len(rows), partRows)
	if ranges != nil {
		src.n = len(ranges)
		e.parScans.Inc()
		e.morsels.Add(int64(src.n))
	}
	src.schema, src.ranges, src.size = schema, ranges, len(rows)
	return func(i int) rowset.BatchCursor {
		part := rows
		if ranges != nil {
			part = rows[ranges[i].Lo:ranges[i].Hi]
		}
		return newSliceCursor(schema, part)
	}
}

// planSource compiles the statement's input — rel, or else the FROM clause —
// and its WHERE clause, recording scan, join and filter spans in the same
// order PlanSpan declares them.
func (e *Engine) planSource(ctx context.Context, t *obs.Trace, sel *SelectStmt, rel *Relation, partRows int) (*source, error) {
	src := &source{n: 1}
	residual := sel.Where
	switch {
	case rel != nil && rel.Input != nil:
		if err := e.planInput(ctx, t, src, sel, rel.Input, partRows); err != nil {
			return nil, err
		}
	case rel != nil:
		src.open = e.partition(src, sel, rel.Schema, rel.Rows, true, partRows)
	case len(sel.From) == 0:
		// FROM-less SELECT evaluates items once against an empty row.
		src.open = e.partition(src, sel, rowset.MustSchema(), []rowset.Row{{}}, false, partRows)
	default:
		fc, err := e.resolveFrom(ctx, sel)
		if err != nil {
			return nil, err
		}
		residual = fc.residual
		if err := e.planFrom(ctx, t, src, sel, &fc, partRows); err != nil {
			return nil, err
		}
	}
	if rel != nil {
		src.schema, src.resolve, src.bind, src.untyped = rel.Schema, rel.Resolve, rel.Bind, rel.Untyped
		src.bindSpan = src.span(t, rel.Kind, e.fanout(rel.Label, src.n), src.n)
	}
	src.residual, src.filter = e.planFilter(t, src, sel.Where, residual)
	return src, nil
}

// planFilter compiles what is left of where after index pushdown (nil:
// nothing) and records the filter span, which exists whenever there is a
// WHERE, even if pushdown consumed every conjunct — the plan shape must not
// depend on which indexes happened to exist.
func (e *Engine) planFilter(t *obs.Trace, src *source, where, residual Expr) (Compiled, *opSpan) {
	var cond Compiled
	if residual != nil {
		cond = Compile(residual, src.schema, src.resolve)
	}
	if where == nil {
		return cond, nil
	}
	return cond, src.span(t, "filter", obs.Label{}, src.n)
}

// filtered stacks a filter on partition i's cursor, and its span.
func filtered(i int, cur rowset.BatchCursor, cond Compiled, fr *frames, sp *opSpan) rowset.BatchCursor {
	if cond != nil {
		cur = &filterCursor{src: cur, cond: cond, frames: fr}
	}
	// With the whole WHERE pushed into the scan the filter passes everything,
	// so its span counts the scan's output.
	return sp.wrap(i, cur)
}

// planFrom opens the resolved FROM clause fc as src's partitions, cut by the
// partition rule of sel: its first scan, and the joins that probe with it.
func (e *Engine) planFrom(ctx context.Context, t *obs.Trace, src *source, sel *SelectStmt, fc *fromClause, partRows int) error {
	first := fc.scans[0]
	open := e.partition(src, sel, first.schema, first.rows(), fc.cuttable(), partRows)
	spScan := src.span(t, "scan", e.scanLabel(first, src.n), src.n)
	scan := func(i int) rowset.BatchCursor { return spScan.wrap(i, open(i)) }
	var err error
	src.open, err = e.planJoins(ctx, t, src, fc, scan)
	src.schema = fc.schema
	if len(fc.joins) > 0 {
		src.size = -1
	}
	return err
}

// planInput opens a Relation's streamed input as src's partitions: its FROM
// clause cut by the partition rule of sel, the statement it feeds, then its
// WHERE and its projection, each with its span.
func (e *Engine) planInput(ctx context.Context, t *obs.Trace, src *source, sel *SelectStmt, in *Input, partRows int) error {
	if err := e.planFrom(ctx, t, src, sel, &in.fc, partRows); err != nil {
		return err
	}
	cond, spFilter := e.planFilter(t, src, in.sel.Where, in.fc.residual)
	spProj := src.span(t, "project", obs.Label{}, src.n)
	scan := src.open
	src.rewrites = true
	src.open = func(i int) rowset.BatchCursor {
		cur := filtered(i, scan(i), cond, nil, spFilter)
		return spProj.wrap(i, &projectCursor{projection: in.proj, src: cur, reuse: src.reuseRows})
	}
	return nil
}

// Input is a SELECT planned to stream into a Relation (Relation.Input) rather
// than run to a rowset first: its subqueries run, its FROM clause resolved
// with index pushdown, its projection compiled. Schema declares its columns
// as QueryContext's result would. An Input serves one statement.
type Input struct {
	Schema *rowset.Schema
	sel    *SelectStmt // subqueries resolved
	fc     fromClause
	proj   *projection
}

// PlanInput plans sel as an Input, or returns nil when there is no sel or its
// rows must be materialized first: an item that is not a column reference or a star, a
// reference that does not resolve (the query then reports it as it would),
// or a clause that merges rows — ORDER BY, DISTINCT, TOP, GROUP BY, HAVING or
// an aggregate.
func (e *Engine) PlanInput(ctx context.Context, sel *SelectStmt) (*Input, error) {
	if sel == nil || len(sel.From) == 0 || len(sel.OrderBy) > 0 || sel.Distinct || sel.Top != nil || needsAggregate(sel) ||
		slices.ContainsFunc(sel.Items, func(it SelectItem) bool { _, ref := it.Expr.(*ColumnRef); return !ref && !it.Star }) {
		return nil, nil
	}
	resolved, err := e.resolveSubqueries(ctx, sel)
	if err != nil {
		return nil, err
	}
	sel = resolved.(*SelectStmt)
	fc, err := e.resolveFrom(ctx, sel)
	if err != nil {
		return nil, err
	}
	items, err := expandStars(sel.Items, fc.schema)
	if err != nil {
		return nil, err
	}
	names := outputNames(items)
	in := &Input{sel: sel, fc: fc, proj: compileProjection(fc.schema, items, names, nil, nil)}
	if slices.Contains(in.proj.ords, -1) {
		return nil, nil
	}
	in.Schema, err = outputSchema(items, names, fc.schema, nil, rowset.TypeNull)
	return in, err
}

// planJoins reads the right input of every join of fc — into a hash join's
// key index, once, for every partition to share; or for a loop join, which
// only a one-partition statement has — and returns the opener that stacks the
// joins on partition i's scan. A hash join's right-input scan span counts the
// rows indexed, says whether the index was built or reused and, when timed,
// times a build.
func (e *Engine) planJoins(ctx context.Context, t *obs.Trace, src *source, fc *fromClause, scan func(int) rowset.BatchCursor) (func(int) rowset.BatchCursor, error) {
	open := scan
	for i, cs := range fc.scans[1:] {
		j, left := &fc.joins[i], open
		var idx *storage.KeyIndex
		var right rowset.BatchCursor
		spRight := src.span(t, "scan", e.scanLabel(cs, 1), 1)
		if j.hash {
			start := obs.Mono()
			var built bool
			var err error
			if idx, built, err = cs.keyIndex(ctx, j); err != nil {
				return nil, err
			}
			var took time.Duration
			if built {
				took = obs.Mono() - start
			}
			n := int64(len(idx.Rows))
			spRight.tally(0, n, (n+rowset.DefaultBatchSize-1)/rowset.DefaultBatchSize, took)
			if spRight != nil {
				spRight.sp.SetLabel(e.joinScanLabel(cs, built))
			}
		} else {
			right = spRight.wrap(0, newSliceCursor(cs.schema, cs.rows()))
		}
		src.rewrites = src.rewrites || j.hash
		spJoin := src.span(t, "join", e.joinLabel(j.kind, j.hash, src.n), src.n)
		open = func(p int) rowset.BatchCursor {
			if idx != nil {
				return spJoin.wrap(p, &hashJoin{fromJoin: j, left: left(p), idx: idx, reuse: src.reuseRows})
			}
			lj := &loopJoin{fromJoin: j, left: left(p), right: right}
			if j.kind != JoinCross {
				lj.on = Compile(cs.ref.On, j.onSchema, nil)
			}
			return spJoin.wrap(p, lj)
		}
	}
	return open, nil
}

// keyIndex returns the key index hash join j probes the scan with, and
// whether this call built it: a bare stored table's, cached per data version,
// or — a view, a pushed index probe — one built over the scan's rows.
func (cs *compiledScan) keyIndex(ctx context.Context, j *fromJoin) (*storage.KeyIndex, bool, error) {
	if cs.bare() {
		return cs.tbl.KeyIndex(ctx, j.ro, j.key)
	}
	idx, err := storage.BuildKeyIndex(ctx, cs.rows(), j.ro, j.key)
	return idx, true, err
}

// joinScanLabel is the label of a hash join's right-input scan: scanLabel's,
// and whether the join's key index was built for the statement or reused.
func (e *Engine) joinScanLabel(cs *compiledScan, built bool) obs.Label {
	l := e.scanLabel(cs, 1)
	if l.Arg = " join-index=built"; !built {
		l.Arg = " join-index=reused"
	}
	return l
}

// forEachPartition opens every partition of src — its scan and the joins that
// probe with it, the cancellation poll, a Relation's bind operator, the
// residual filter — and hands it to fn, which owns the cursor; fr is the
// partition's frame values (nil unless the source is a Relation), for the
// operators fn stacks on top. keepRows says fn keeps input rows past the
// batch they came in (an identity projection passes them on), keepFrames that
// it keeps frame values (an aggregate keeps each group's first): what fn
// keeps, a Relation's binder and a streamed input's projection must not
// reuse. Partitions run through par.Forks.Run, on up to
// e.Workers goroutines (the statement's parallelism, which the trace records)
// while the process-wide bound has places free and inline otherwise; a single
// partition runs inline on the calling goroutine. fn is called at most once
// per index and must only write state of its own partition; Run's
// lowest-index-error rule surfaces the error a front-to-back scan would have
// hit first.
func (e *Engine) forEachPartition(ctx context.Context, t *obs.Trace, src *source, keepRows, keepFrames bool, fn func(i int, cur rowset.BatchCursor, fr *frames) error) error {
	src.reuseRows = !keepRows
	if src.n == 1 {
		t.SetParallelism(1)
	} else {
		t.SetParallelism(min(e.workers(), src.n))
	}
	done := ctx.Done()
	return par.NewForks(e.Workers).Run(ctx, src.n, func(i int, _ bool) error {
		cur := src.open(i)
		if done != nil {
			// Cancellable statement: poll ctx between row batches so a Close'd
			// server or timed-out client stops the scan mid-stream. The wrap
			// sits above the joins, so one poll point covers the whole source
			// pipeline, and below the bind operator, whose work it paces.
			cur = &cancelCursor{src: cur, ctx: ctx, done: done}
		}
		var fr *frames
		var bind func([]rowset.Row, []any) (int, error)
		if src.bind != nil {
			bind = src.bind(!keepFrames)
			bc := &bindCursor{src: cur, bind: bind}
			cur, fr = bc, &bc.frames
		}
		err := fn(i, filtered(i, src.bindSpan.wrap(i, cur), src.residual, fr, src.filter), fr)
		if bind != nil && !keepFrames {
			bind(nil, nil) //nolint:errcheck // the partition is done: nothing to bind
		}
		return err
	})
}

// joinLabel renders a join span label for EXPLAIN and execution alike: the
// join kind, the strategy, and the fan-out of the partitions that probe it
// ("inner hash morsels=13 workers=2", "cross loop").
func (e *Engine) joinLabel(kind JoinKind, hash bool, partitions int) obs.Label {
	strategy := " loop"
	if hash {
		strategy = " hash"
	}
	return e.fanout(obs.Label{Text: joinKindLabel(kind), Arg: strategy}, partitions)
}
