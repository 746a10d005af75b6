package sqlengine

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/lex"
	"repro/internal/obs"
	"repro/internal/rowset"
	"repro/internal/storage"
)

// Engine executes SQL statements against a storage database, plus the
// engine-level view catalog.
type Engine struct {
	DB    *storage.Database
	views viewCatalog

	// Workers bounds the goroutines a statement's partitions run on; <= 0
	// means runtime.GOMAXPROCS(0). Results never depend on it.
	Workers int

	// Metric handles resolved by Instrument; nil-safe no-ops until then, so
	// an uninstrumented engine pays nothing.
	stmts    *obs.Counter
	stmtErrs *obs.Counter
	rowsOut  *obs.Counter
	batches  *obs.Counter
	morsels  *obs.Counter
	parScans *obs.Counter

	// qualified caches resolveScan's qualified table schemas (qualify).
	qualified atomic.Pointer[map[qualifiedKey]*rowset.Schema]

	// ddlHook, when set, is called with the object name after every
	// successful CREATE/DROP of a table or view — the provider's plan cache
	// hangs invalidation off it.
	ddlHook func(name string)
}

// SetDDLHook registers fn to run after every successful table or view
// CREATE/DROP, receiving the object's name. Call before serving statements;
// the hook is not synchronized.
func (e *Engine) SetDDLHook(fn func(name string)) { e.ddlHook = fn }

func (e *Engine) notifyDDL(name string) {
	if e.ddlHook != nil {
		e.ddlHook(name)
	}
}

// NewEngine wraps db.
func NewEngine(db *storage.Database) *Engine {
	return &Engine{DB: db}
}

// Instrument resolves the engine's metric handles against reg, exposing
// sql_statements_total, sql_errors_total, and sql_rows_out_total through the
// $SYSTEM.DM_PROVIDER_METRICS rowset. A nil registry leaves the engine
// uninstrumented.
func (e *Engine) Instrument(reg *obs.Registry) {
	e.stmts = reg.Counter(obs.MetricSQLStatementsTotal)
	e.stmtErrs = reg.Counter(obs.MetricSQLErrorsTotal)
	e.rowsOut = reg.Counter(obs.MetricSQLRowsOutTotal)
	e.batches = reg.Counter(obs.MetricSQLBatchesTotal)
	e.morsels = reg.Counter(obs.MetricSQLMorselsTotal)
	e.parScans = reg.Counter(obs.MetricSQLParallelScansTotal)
}

// Exec parses and executes one SQL statement. Every statement returns a
// rowset; DML statements return a single-row ([rows affected]) result.
func (e *Engine) Exec(sql string) (*rowset.Rowset, error) {
	return e.ExecContext(context.Background(), sql) //dmlint:allow ctxflow — documented context-free convenience form; ExecContext is the primary API.
}

// ExecContext is Exec threading a context: when ctx carries an obs.Trace,
// SELECT execution records per-operator spans (scan, join, filter, group-by,
// sort, project) under the statement's span tree.
func (e *Engine) ExecContext(ctx context.Context, sql string) (*rowset.Rowset, error) {
	stmt, err := Parse(sql)
	if err != nil {
		e.stmts.Inc()
		e.stmtErrs.Inc()
		return nil, err
	}
	return e.ExecStmtContext(ctx, stmt)
}

// ExecStmtContext executes a parsed statement, recording operator spans on
// the trace carried by ctx (if any).
func (e *Engine) ExecStmtContext(ctx context.Context, stmt Statement) (*rowset.Rowset, error) {
	rs, err := e.execStmt(ctx, stmt)
	e.stmts.Inc()
	if err != nil {
		e.stmtErrs.Inc()
	} else if rs != nil {
		e.rowsOut.Add(int64(rs.Len()))
	}
	return rs, err
}

func (e *Engine) execStmt(ctx context.Context, stmt Statement) (*rowset.Rowset, error) {
	if _, ok := stmt.(*SelectStmt); !ok { // a SELECT resolves its own, in query
		var err error
		if stmt, err = e.resolveSubqueries(ctx, stmt); err != nil {
			return nil, err
		}
	}
	switch st := stmt.(type) {
	case *SelectStmt:
		return e.QueryContext(ctx, st)
	case *CreateTableStmt:
		schema, err := rowset.NewSchema(st.Columns...)
		if err != nil {
			return nil, err
		}
		if _, err := e.DB.CreateTable(st.Name, schema); err != nil {
			return nil, err
		}
		e.notifyDDL(st.Name)
		return affected(0)
	case *InsertStmt:
		return e.execInsert(ctx, st)
	case *DeleteStmt:
		return e.execDelete(st)
	case *UpdateStmt:
		return e.execUpdate(st)
	case *DropTableStmt:
		if err := e.DB.DropTable(st.Name); err != nil {
			return nil, err
		}
		e.notifyDDL(st.Name)
		return affected(0)
	case *CreateViewStmt:
		rs, err := e.execCreateView(ctx, st)
		if err == nil {
			e.notifyDDL(st.Name)
		}
		return rs, err
	case *DropViewStmt:
		if err := e.views.drop(st.Name); err != nil {
			return nil, err
		}
		e.notifyDDL(st.Name)
		return affected(0)
	}
	return nil, fmt.Errorf("sqlengine: unsupported statement %T", stmt)
}

func affected(n int) (*rowset.Rowset, error) {
	rs := rowset.New(rowset.MustSchema(rowset.Column{Name: "rows affected", Type: rowset.TypeLong}))
	if err := rs.AppendVals(int64(n)); err != nil {
		return nil, err
	}
	return rs, nil
}

// ---------- SELECT ----------

// needsAggregate reports whether the SELECT runs through the aggregation
// operator: explicit GROUP BY / HAVING, or an aggregate call in the items.
func needsAggregate(sel *SelectStmt) bool {
	if len(sel.GroupBy) > 0 || sel.Having != nil {
		return true
	}
	for _, it := range sel.Items {
		if !it.Star && ContainsAggregate(it.Expr) {
			return true
		}
	}
	return false
}

// QueryContext executes a SELECT through the one pipeline every statement
// takes:
//
//	source partitions → per-partition filter → per-partition project (with
//	sort keys) or partial aggregate → merge in partition order → ORDER BY /
//	DISTINCT / TOP
//
// A full scan of a base table — alone, or probing hash joins — is cut into
// storage.DefaultMorselSize-row partitions that run on up to Workers
// goroutines; every other source is one partition that runs inline on the
// calling goroutine (see partitionRanges). Within a partition, scan, join
// probes, filter, projection, DISTINCT and TOP pipeline batch-at-a-time and TOP
// stops upstream work as soon as it has its rows. Only ORDER BY, GROUP BY, a
// join's right input (a hash join's index, built once for every partition)
// and the merge of several partitions materialize.
//
// Each executor node records one span — scan, join, filter, group-by, project,
// sort — on the trace carried by ctx; the spans are created in plan order up
// front and their row counts (plus per-operator time under EXPLAIN ANALYZE's
// detailed mode) are filled in once the partitions have drained. With no trace
// the span plumbing is nil no-ops and nothing allocates.
func (e *Engine) QueryContext(ctx context.Context, sel *SelectStmt) (*rowset.Rowset, error) {
	return e.query(ctx, sel, nil, storage.DefaultMorselSize)
}

// QueryRelation runs sel — FROM is ignored — over the rows of rel instead of a
// FROM clause, through the same pipeline QueryContext runs: the same partition
// rule and worker bound, the same filter, projection or aggregation, sort and
// TOP operators, the same spans. See Relation for what the embedder supplies.
func (e *Engine) QueryRelation(ctx context.Context, sel *SelectStmt, rel Relation) (*rowset.Rowset, error) {
	return e.query(ctx, sel, &rel, storage.DefaultMorselSize)
}

// query is QueryContext (rel == nil) and QueryRelation with the partition size
// as an argument, so tests can run small fixtures through many partitions.
func (e *Engine) query(ctx context.Context, sel *SelectStmt, rel *Relation, partRows int) (*rowset.Rowset, error) {
	t := obs.FromContext(ctx)
	spSel := t.StartSpan("select", "")
	defer t.EndSpan(spSel)
	resolved, err := e.resolveSubqueries(ctx, sel)
	if err != nil {
		return nil, err
	}
	sel = resolved.(*SelectStmt)
	src, err := e.planSource(ctx, t, sel, rel, partRows)
	if err != nil {
		return nil, err
	}
	defer src.flushSpans()
	var out *rowset.Rowset
	if needsAggregate(sel) {
		out, err = e.aggregate(ctx, t, sel, src)
	} else {
		out, err = e.project(ctx, t, sel, src)
	}
	if err != nil {
		return nil, err
	}
	spSel.SetRows(int64(out.Len()))
	return out, nil
}

// project runs the non-aggregating plan: every partition projects its rows
// (computing ORDER BY keys alongside), the outputs concatenate in partition
// order, then ORDER BY sorts and DISTINCT/TOP trim. DISTINCT and TOP run
// exactly once: inside the lone partition when nothing has to be merged or
// sorted first — which is what stops a TOP's scan early — and over the merged,
// sorted rows otherwise.
func (e *Engine) project(ctx context.Context, t *obs.Trace, sel *SelectStmt, src *source) (*rowset.Rowset, error) {
	items, err := expandStars(sel.Items, src.schema)
	if err != nil {
		return nil, err
	}
	names := outputNames(items)
	plan := compileProjection(src.schema, items, names, sel.OrderBy, src.resolve)
	spProj := src.span(t, "project", obs.Label{}, src.n)
	ordered := len(sel.OrderBy) > 0
	streamTail := !ordered && src.n == 1
	// A DISTINCT or TOP inside the lone partition keeps few of its rows, so
	// its output grows to what it keeps instead of taking a window.
	trims := streamTail && (sel.Distinct || sel.Top != nil)
	outs := make([][]rowset.Row, src.n)
	keys := make([][]rowset.Row, src.n)
	var all, allKeys []rowset.Row
	if !trims {
		all = src.windows(outs)
		if plan.orderPlan != nil {
			allKeys = src.windows(keys)
		}
	}
	var batches atomic.Int64
	err = e.forEachPartition(ctx, t, src, plan.identity, false, func(i int, cur rowset.BatchCursor, fr *frames) error {
		proj := &projectCursor{projection: plan, src: cur, frames: fr}
		// The drain counts what the projection emits, unless a streamed
		// DISTINCT or TOP sits between them or the span times its operator.
		var out rowset.BatchCursor = proj
		counted := trims || spProj.isTimed()
		if counted {
			out = spProj.wrap(i, proj)
		}
		if streamTail {
			out = tailCursor(out, sel)
		}
		var nb int64
		var err error
		outs[i], keys[i], nb, err = drainWithKeys(out, proj, outs[i], keys[i])
		if !counted {
			spProj.tally(i, int64(len(outs[i])), nb, 0)
		}
		batches.Add(nb)
		return err
	})
	if err != nil {
		return nil, err
	}
	e.batches.Add(batches.Load())
	rows, sortKeys := closeUp(all, outs), closeUp(allKeys, keys)
	if ordered && len(plan.keyOrds) > 1 {
		sortKeys = keysForOrds(rows, plan.keyOrds)
	}
	if ordered {
		spSort := t.StartSpan("sort", "")
		var path string
		if len(plan.keyOrds) == 1 {
			path = rowset.SortByColumn(rows, plan.keyOrds[0], sel.OrderBy[0].Desc)
		} else {
			path = rowset.SortByKeys(rows, sortKeys, descFlags(sel.OrderBy))
		}
		spSort.SetLabel(obs.Label{Text: path})
		spSort.SetRows(int64(len(rows)))
		t.EndSpan(spSort)
	}
	if !streamTail && (sel.Distinct || sel.Top != nil) {
		rows, err = tailRows(rows, sel)
		if err != nil {
			return nil, err
		}
	}
	schema, err := outputSchema(items, names, src.schema, rows, src.untyped)
	if err != nil {
		return nil, err
	}
	// Rows are already canonical (projection normalizes computed values), so
	// the result adopts them without another pass.
	return rowset.Adopt(schema, rows), nil
}

// windows gives each partition, when src knows its size, its window of one
// slice sized to the input — parts[i] empty, with room for the partition's
// rows — and returns that slice; nil when the size is unknown.
func (src *source) windows(parts [][]rowset.Row) []rowset.Row {
	if src.size < 0 {
		return nil
	}
	all := make([]rowset.Row, src.size)
	parts[0] = all[:0]
	for i, r := range src.ranges {
		parts[i] = all[r.Lo:r.Lo:r.Hi]
	}
	return all
}

// closeUp joins per-partition row slices in partition order. Parts drained
// into their windows of all — never more rows than the window holds — move
// down over the gaps their filters left, in place; none moves when nothing
// was filtered. Without all (a join's output, of unknown size) a single
// part is the result as it is, and several are copied into a new slice.
func closeUp(all []rowset.Row, parts [][]rowset.Row) []rowset.Row {
	if all == nil && len(parts) == 1 {
		return parts[0]
	}
	n := 0
	if all == nil {
		for _, p := range parts {
			n += len(p)
		}
		all, n = make([]rowset.Row, n), 0
	}
	for _, p := range parts {
		if len(p) > 0 && &all[n] != &p[0] {
			copy(all[n:], p)
		}
		n += len(p)
	}
	return all[:n]
}

// joinKindLabel names a join kind for span labels.
func joinKindLabel(k JoinKind) string {
	switch k {
	case JoinLeft:
		return "left"
	case JoinCross:
		return "cross"
	}
	return "inner"
}

// PlanSpan renders the SELECT's executor plan as a span tree without running
// it: the same operator nodes, in the same order, that QueryContext would
// record on a trace — scan/join per FROM entry, filter, then group-by or
// project (+sort). Elapsed and Rows stay zero; EXPLAIN renders them as NULL.
func (sel *SelectStmt) PlanSpan() *obs.Span {
	sp := obs.NewSpan("select", "")
	for i, ref := range sel.From {
		sp.Add(obs.NewSpan("scan", ref.AliasOrName()))
		if i > 0 {
			sp.Add(obs.NewSpan("join", joinKindLabel(ref.Kind)))
		}
	}
	return sel.addTailSpans(sp)
}

// addTailSpans appends the operators downstream of the source to a plan tree.
func (sel *SelectStmt) addTailSpans(sp *obs.Span) *obs.Span {
	if sel.Where != nil {
		sp.Add(obs.NewSpan("filter", ""))
	}
	if needsAggregate(sel) {
		sp.Add(obs.NewSpan("group-by", ""))
	} else {
		sp.Add(obs.NewSpan("project", ""))
		if len(sel.OrderBy) > 0 {
			sp.Add(obs.NewSpan("sort", ""))
		}
	}
	return sp
}

// PlanSpan is the SELECT's cost-annotated executor plan: the span tree
// sel.PlanSpan() declares, with scan labels carrying index-pushdown choices,
// cardinality estimates and the partition fan-out ("cust index=id est=1",
// "cust est=50000 morsels=13 workers=4") and join labels the strategy and the
// fan-out of the probing partitions ("inner hash morsels=13 workers=4") — the
// same choices, from the same functions, QueryContext would make right now
// against the live catalog and its key indexes. Falls back to the shape-only
// sel.PlanSpan() when the catalog cannot resolve the statement (EXPLAIN must
// not fail where execution would explain better). A view in FROM runs its
// query under ctx, as execution would, to learn its size.
func (e *Engine) PlanSpan(ctx context.Context, sel *SelectStmt) *obs.Span {
	if len(sel.From) == 0 {
		return sel.PlanSpan()
	}
	fc, err := e.resolveFrom(ctx, sel)
	if err != nil {
		return sel.PlanSpan()
	}
	return sel.addTailSpans(e.addFromSpans(obs.NewSpan("select", ""), sel, &fc))
}

// addFromSpans adds the scan and join spans of fc, cut by the partition rule
// of sel, to sp.
func (e *Engine) addFromSpans(sp *obs.Span, sel *SelectStmt, fc *fromClause) *obs.Span {
	// An unpushed scan's estimate is its exact row count.
	n := len(partitionRanges(sel, fc.cuttable(), fc.scans[0].estimate, storage.DefaultMorselSize))
	sp.Add(obs.NewSpan("scan", e.scanLabel(fc.scans[0], n).String()))
	for i, cs := range fc.scans[1:] {
		j, label := &fc.joins[i], e.scanLabel(cs, 1)
		if j.hash {
			// A run now would build the index unless the table has it cached.
			label = e.joinScanLabel(cs, !cs.bare() || cs.tbl.CachedKeyIndex(j.ro, j.key) == nil)
		}
		sp.Add(obs.NewSpan("scan", label.String()))
		sp.Add(obs.NewSpan("join", e.joinLabel(cs.ref.Kind, j.hash, n).String()))
	}
	return sp
}

// InputPlanSpans is the plan of in's operators as sel, over a Relation
// streaming in, records them ahead of the relation's own: its scans and joins,
// cut by sel's partition rule, its filter and its projection.
func (e *Engine) InputPlanSpans(sel *SelectStmt, in *Input) []*obs.Span {
	return in.sel.addTailSpans(e.addFromSpans(obs.NewSpan("", ""), sel, &in.fc)).Children
}

func concatSchemas(a, b *rowset.Schema) (*rowset.Schema, error) {
	cols := make([]rowset.Column, 0, a.Len()+b.Len())
	cols = append(cols, a.Columns...)
	cols = append(cols, b.Columns...)
	return rowset.NewSchema(cols...)
}

// equiJoinOrdinals recognizes "a.x = b.y" ON clauses where the two refs
// resolve to opposite sides, returning the left and right ordinals.
func equiJoinOrdinals(on Expr, left, right *rowset.Schema) (int, int, bool) {
	b, ok := on.(*Binary)
	if !ok || b.Op != OpEq {
		return 0, 0, false
	}
	lc, ok1 := b.L.(*ColumnRef)
	rc, ok2 := b.R.(*ColumnRef)
	if !ok1 || !ok2 {
		return 0, 0, false
	}
	if lo, err := ResolveColumn(left, lc.Qualifier, lc.Name); err == nil {
		if ro, err := ResolveColumn(right, rc.Qualifier, rc.Name); err == nil {
			return lo, ro, true
		}
	}
	if lo, err := ResolveColumn(left, rc.Qualifier, rc.Name); err == nil {
		if ro, err := ResolveColumn(right, lc.Qualifier, lc.Name); err == nil {
			return lo, ro, true
		}
	}
	return 0, 0, false
}

// ---------- projection helpers ----------

// expandStars replaces * and q.* items with explicit column refs.
func expandStars(items []SelectItem, schema *rowset.Schema) ([]SelectItem, error) {
	out := make([]SelectItem, 0, len(items))
	for _, it := range items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		matched := false
		for _, c := range schema.Columns {
			name := c.Name
			if it.Qualifier != "" && !strings.HasPrefix(strings.ToLower(name), strings.ToLower(it.Qualifier)+".") {
				continue
			}
			matched = true
			out = append(out, SelectItem{
				Expr:  &ColumnRef{Name: name},
				Alias: bareName(name),
			})
		}
		if it.Qualifier != "" && !matched {
			return nil, fmt.Errorf("sqlengine: unknown qualifier %q in %s.*", it.Qualifier, it.Qualifier)
		}
	}
	return out, nil
}

// outputNames assigns unique output column names: a name already taken,
// case-insensitively, gets its use count as a suffix.
func outputNames(items []SelectItem) []string {
	names := make([]string, len(items))
	// uses[j] counts the uses of names[j]'s name; one entry per name is live
	// (non-zero). A select list is short, so it is scanned, not hashed.
	uses := make([]int, len(items))
	taken := func(n string, upto int) int {
		for j := range upto {
			if uses[j] > 0 && lex.FoldEqual(names[j], n) {
				return j
			}
		}
		return -1
	}
	for i, it := range items {
		var n string
		switch {
		case it.Alias != "":
			n = it.Alias
		default:
			if cr, ok := it.Expr.(*ColumnRef); ok {
				n = cr.Name
			} else {
				n = it.Expr.String()
			}
		}
		if j := taken(n, i); j >= 0 {
			uses[j]++
			n = fmt.Sprintf("%s_%d", n, uses[j])
		}
		if j := taken(n, i); j >= 0 {
			uses[j] = 1
		} else {
			uses[i] = 1
		}
		names[i] = n
	}
	return names
}

// outputSchema infers output column types: declared types for direct column
// references, value-based inference otherwise, and untyped for a column no row
// gave a value.
func outputSchema(items []SelectItem, names []string, srcSchema *rowset.Schema, rows []rowset.Row, untyped rowset.Type) (*rowset.Schema, error) {
	cols := make([]rowset.Column, len(items))
	for i, it := range items {
		col := rowset.Column{Name: names[i], Type: rowset.TypeNull}
		if cr, ok := it.Expr.(*ColumnRef); ok {
			if ord, err := ResolveColumn(srcSchema, cr.Qualifier, cr.Name); err == nil {
				col.Type = srcSchema.Column(ord).Type
				col.Nested = srcSchema.Column(ord).Nested
			}
		}
		if col.Type == rowset.TypeNull {
			for _, r := range rows {
				if r[i] != nil {
					col.Type = rowset.TypeOf(r[i])
					if nested, ok := r[i].(*rowset.Rowset); ok {
						col.Nested = nested.Schema()
					}
					break
				}
			}
		}
		if col.Type == rowset.TypeNull {
			col.Type = untyped
		}
		cols[i] = col
	}
	return rowset.NewSchema(cols...)
}

// ---------- DML ----------

func (e *Engine) execInsert(ctx context.Context, st *InsertStmt) (*rowset.Rowset, error) {
	tbl, err := e.DB.Table(st.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()

	// Map the statement's column list to table ordinals.
	ords := make([]int, 0, len(st.Columns))
	if len(st.Columns) > 0 {
		for _, c := range st.Columns {
			i, ok := schema.Lookup(c)
			if !ok {
				return nil, fmt.Errorf("sqlengine: table %s has no column %q", st.Table, c)
			}
			ords = append(ords, i)
		}
	} else {
		for i := 0; i < schema.Len(); i++ {
			ords = append(ords, i)
		}
	}

	buildRow := func(vals rowset.Row) (rowset.Row, error) {
		if len(vals) != len(ords) {
			return nil, fmt.Errorf("sqlengine: INSERT has %d values for %d columns", len(vals), len(ords))
		}
		full := make(rowset.Row, schema.Len())
		for i, o := range ords {
			full[o] = vals[i]
		}
		return full, nil
	}

	n := 0
	if st.Query != nil {
		res, err := e.QueryContext(ctx, st.Query)
		if err != nil {
			return nil, err
		}
		for _, r := range res.Rows() {
			full, err := buildRow(r)
			if err != nil {
				return nil, err
			}
			if err := tbl.Insert(full); err != nil {
				return nil, err
			}
			n++
		}
		return affected(n)
	}
	noCols := rowset.MustSchema()
	for _, exprs := range st.Rows {
		vals := make(rowset.Row, len(exprs))
		for i, ex := range exprs {
			v, err := Eval(ex, noCols, nil)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		full, err := buildRow(vals)
		if err != nil {
			return nil, err
		}
		if err := tbl.Insert(full); err != nil {
			return nil, err
		}
		n++
	}
	return affected(n)
}

func (e *Engine) execDelete(st *DeleteStmt) (*rowset.Rowset, error) {
	tbl, err := e.DB.Table(st.Table)
	if err != nil {
		return nil, err
	}
	if st.Where == nil {
		n := tbl.Len()
		tbl.Truncate()
		return affected(n)
	}
	cur := tbl.Cursor()
	defer cur.Close() //nolint:errcheck // table cursors never fail to close
	where := Compile(st.Where, tbl.Schema(), nil)
	var env Env
	var keep []rowset.Row
	removed := 0
	for {
		r, err := cur.Next()
		if err != nil {
			return nil, err
		}
		if r == nil {
			break
		}
		env.Row = r
		ok, err := where.Test(&env)
		if err != nil {
			return nil, err
		}
		if ok {
			removed++
		} else {
			keep = append(keep, r)
		}
	}
	if err := tbl.Replace(keep); err != nil {
		return nil, err
	}
	return affected(removed)
}

func (e *Engine) execUpdate(st *UpdateStmt) (*rowset.Rowset, error) {
	tbl, err := e.DB.Table(st.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()
	setOrds := make([]int, len(st.Set))
	setFns := make([]Compiled, len(st.Set))
	for i, sc := range st.Set {
		o, ok := schema.Lookup(sc.Column)
		if !ok {
			return nil, fmt.Errorf("sqlengine: table %s has no column %q", st.Table, sc.Column)
		}
		setOrds[i] = o
		setFns[i] = Compile(sc.Value, schema, nil)
	}
	var where Compiled
	if st.Where != nil {
		where = Compile(st.Where, schema, nil)
	}
	var env Env
	cur := tbl.Cursor()
	defer cur.Close() //nolint:errcheck // table cursors never fail to close
	rows := make([]rowset.Row, 0, tbl.Len())
	n := 0
	for {
		r, err := cur.Next()
		if err != nil {
			return nil, err
		}
		if r == nil {
			break
		}
		match := true
		env.Row = r
		if where != nil {
			if match, err = where.Test(&env); err != nil {
				return nil, err
			}
		}
		if !match {
			rows = append(rows, r)
			continue
		}
		nr := r.Clone()
		for j, fn := range setFns {
			v, err := fn(&env)
			if err != nil {
				return nil, err
			}
			nr[setOrds[j]] = v
		}
		rows = append(rows, nr)
		n++
	}
	if err := tbl.Replace(rows); err != nil {
		return nil, err
	}
	return affected(n)
}
