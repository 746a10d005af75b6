package sqlengine

// Streaming projection. The projection plan — which items are plain column
// passthroughs, which need evaluation, how each ORDER BY key is obtained — is
// compiled once per statement; the per-row loop then does no name resolution
// and no allocation beyond the output row itself.

import (
	"strings"

	"repro/internal/rowset"
)

// orderKey says how to produce one ORDER BY key for a row: either copy a
// projected output value (an unqualified reference to an output name resolves
// against the projection first) or run a compiled expression against the
// source row.
type orderKey struct {
	outOrd int // >= 0: key is out[outOrd]
	fn     Compiled
}

// compileOrderKeys plans the statement's ORDER BY keys over output columns
// named names and source rows of schema.
func compileOrderKeys(order []OrderItem, names []string, schema *rowset.Schema, resolve Resolver) []orderKey {
	keys := make([]orderKey, len(order))
	for i, o := range order {
		keys[i].outOrd = -1
		if cr, ok := o.Expr.(*ColumnRef); ok && cr.Qualifier == "" {
			for j, n := range names {
				if strings.EqualFold(n, cr.Name) {
					keys[i].outOrd = j
					break
				}
			}
		}
		if keys[i].outOrd < 0 {
			keys[i].fn = Compile(o.Expr, schema, resolve)
		}
	}
	return keys
}

// evalOrderKeys fills keys for one output row and the frame it was projected
// from.
func evalOrderKeys(plan []orderKey, out rowset.Row, env *Env, keys rowset.Row) error {
	for i, k := range plan {
		if k.outOrd >= 0 {
			keys[i] = out[k.outOrd]
			continue
		}
		v, err := k.fn(env)
		if err != nil {
			return err
		}
		keys[i] = v
	}
	return nil
}

// projection is a statement's compiled SELECT list and ORDER BY keys, built
// once and shared read-only by every partition's projectCursor.
type projection struct {
	ords []int      // source ordinal per item; -1 = computed (run fns[i] per row)
	fns  []Compiled // nil where ords[i] >= 0

	orderPlan []orderKey

	// keyOrds non-nil means every ORDER BY key is a projected output column
	// (keys[k] == out[keyOrds[k]]): the cursor skips per-row key work
	// entirely and the sort drain gathers keys from the output rows after
	// the drain (zero-copy views in the single-key case).
	keyOrds []int

	// identity short-circuits projection entirely: the item list is exactly
	// the source columns in order (SELECT * over one table), so source rows
	// pass through unshaped. The engine never mutates stored rows (UPDATE
	// clones before writing), so sharing them with the result is safe.
	identity bool
}

// compileProjection compiles the projection; resolve is the embedder's hook
// when the source is a Relation. Column references that fail to resolve compile
// to failing closures rather than being rejected here: resolution errors
// surface only when a row is actually evaluated, so a query over an empty table
// still succeeds.
func compileProjection(srcSchema *rowset.Schema, items []SelectItem, names []string, order []OrderItem, resolve Resolver) *projection {
	p := &projection{
		ords: make([]int, len(items)),
		fns:  make([]Compiled, len(items)),
	}
	p.identity = len(items) == srcSchema.Len()
	for i, it := range items {
		p.ords[i] = -1
		if cr, ok := it.Expr.(*ColumnRef); ok {
			if ord, err := ResolveColumn(srcSchema, cr.Qualifier, cr.Name); err == nil {
				p.ords[i] = ord
			}
		}
		if p.ords[i] < 0 {
			p.fns[i] = Compile(it.Expr, srcSchema, resolve)
		}
		if p.ords[i] != i {
			p.identity = false
		}
	}
	if len(order) > 0 {
		p.orderPlan = compileOrderKeys(order, names, srcSchema, resolve)
		allOut := true
		for _, k := range p.orderPlan {
			allOut = allOut && k.outOrd >= 0
		}
		if allOut {
			p.keyOrds = make([]int, len(p.orderPlan))
			for i, k := range p.orderPlan {
				p.keyOrds[i] = k.outOrd
			}
			p.orderPlan = nil
		}
	}
	return p
}

// projectCursor evaluates a projection over its source batches. When ORDER BY
// is present it also computes each row's sort keys, exposed via batchKeys so
// the sort drain can collect rows and keys in one pass.
type projectCursor struct {
	*projection
	src    rowset.BatchCursor
	frames *frames
	env    Env
	failed error // see cutShort
	// reuse lets the output rows of one batch be written over by the next:
	// nothing downstream keeps them (a streamed input's rows, bound and
	// copied from before the next pull).
	reuse bool
	arena rowset.Row

	// The reused output-row buffer, and the per-batch sort keys (parallel to
	// the last returned batch's live rows; read via batchKeys before the next
	// pull).
	outBuf []rowset.Row
	keyBuf []rowset.Row
}

// keysForOrds gathers the key rows of an ORDER BY on several projected
// output columns after the merge (the keyOrds fast path); one such column is
// sorted in place by rowset.SortByColumn instead.
func keysForOrds(outs []rowset.Row, ords []int) []rowset.Row {
	keys := make([]rowset.Row, len(outs))
	w := len(ords)
	arena := make(rowset.Row, len(outs)*w)
	for i, r := range outs {
		k := arena[i*w : (i+1)*w : (i+1)*w]
		for j, o := range ords {
			k[j] = r[o]
		}
		keys[i] = k
	}
	return keys
}

// projectInto shapes the frame's source row into the caller-provided output
// row (NextBatch carves output rows out of one per-batch arena allocation).
func (p *projectCursor) projectInto(out rowset.Row) error {
	for i, o := range p.ords {
		if o >= 0 {
			out[i] = p.env.Row[o] // already canonical: coerced on insert or normalized upstream
			continue
		}
		v, err := p.fns[i](&p.env)
		if err != nil {
			return err
		}
		out[i] = rowset.Normalize(v)
	}
	return nil
}

// NextBatch projects a whole source batch. Identity projections with no
// ORDER BY pass the source batch through untouched (selection vector and
// all); otherwise output rows are assembled into a reused buffer. When an
// order plan is active, batchKeys() exposes the keys for the returned
// batch's live rows, valid until the next pull.
func (p *projectCursor) NextBatch() (rowset.Batch, error) {
	if p.failed != nil {
		return rowset.Batch{}, p.failed
	}
	b, err := p.src.NextBatch()
	if err != nil || b.Empty() {
		return b, err
	}
	if p.identity && p.orderPlan == nil {
		return b, nil
	}
	n := b.Len()
	// Output rows and key rows are carved out of one arena allocation per
	// batch instead of one per row. The arenas are fresh unless reuse says
	// otherwise: downstream drains retain the individual rows.
	kk := len(p.orderPlan)
	var keyArena rowset.Row
	if p.orderPlan != nil {
		p.keyBuf = p.keyBuf[:0]
		keyArena = make(rowset.Row, n*kk)
	}
	if p.identity {
		for i := 0; i < n; i++ {
			p.frames.load(&p.env, b, i)
			keys := keyArena[i*kk : (i+1)*kk : (i+1)*kk]
			if err := evalOrderKeys(p.orderPlan, p.env.Row, &p.env, keys); err != nil {
				return cutShort(b, i, err, &p.failed)
			}
			p.keyBuf = append(p.keyBuf, keys)
		}
		return b, nil
	}
	if cap(p.outBuf) < n {
		p.outBuf = make([]rowset.Row, 0, n)
	}
	p.outBuf = p.outBuf[:0]
	w := len(p.ords)
	if !p.reuse || cap(p.arena) < n*w {
		p.arena = make(rowset.Row, n*w)
	}
	arena := p.arena[:n*w]
	for i := 0; i < n; i++ {
		p.frames.load(&p.env, b, i)
		out := arena[i*w : (i+1)*w : (i+1)*w]
		keys := keyArena[i*kk : (i+1)*kk : (i+1)*kk]
		err := p.projectInto(out)
		if err == nil {
			err = evalOrderKeys(p.orderPlan, out, &p.env, keys)
		}
		if err != nil {
			return cutShort(rowset.Batch{Rows: p.outBuf}, i, err, &p.failed)
		}
		p.outBuf = append(p.outBuf, out)
		if p.orderPlan != nil {
			p.keyBuf = append(p.keyBuf, keys)
		}
	}
	return rowset.Batch{Rows: p.outBuf}, nil
}

// batchKeys returns the ORDER BY keys parallel to the live rows of the batch
// last returned by NextBatch.
func (p *projectCursor) batchKeys() []rowset.Row { return p.keyBuf }

// Schema is nil: output column types are inferred from the drained rows
// (outputSchema), and no operator above a projection asks for its schema.
func (p *projectCursor) Schema() *rowset.Schema { return nil }
func (p *projectCursor) Close() error           { return p.src.Close() }

// descFlags extracts the per-key descending flags for rowset.SortByKeys.
func descFlags(order []OrderItem) []bool {
	d := make([]bool, len(order))
	for i, o := range order {
		d[i] = o.Desc
	}
	return d
}

// drainWithKeys pulls the projection to exhaustion, appending output rows
// to outs and their parallel sort keys to keys (read off proj after each pull
// — cur may be a tracing wrapper around proj, or its DISTINCT/TOP tail on an
// unordered statement; none under the keyOrds fast path, whose keys are read
// off the merged rows); batches reports how many batches flowed. On an
// error, outs and batches hold what flowed before it.
func drainWithKeys(cur rowset.BatchCursor, proj *projectCursor, outs, keys []rowset.Row) ([]rowset.Row, []rowset.Row, int64, error) {
	defer cur.Close() //nolint:errcheck // Close after exhaustion is a no-op
	keyed := len(proj.orderPlan) > 0
	var batches int64
	for {
		b, err := cur.NextBatch()
		if err != nil {
			return outs, keys, batches, err
		}
		if b.Empty() {
			break
		}
		batches++
		outs = appendLive(outs, b)
		if keyed {
			keys = append(keys, proj.batchKeys()...)
		}
	}
	return outs, keys, batches, nil
}
