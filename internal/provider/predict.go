package provider

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dmx"
	"repro/internal/lex"
	"repro/internal/obs"
	"repro/internal/rowset"
	"repro/internal/sqlengine"
)

// predictionSelect executes SELECT ... FROM <model> PREDICTION JOIN
// (<source>) — the paper's Section 3.3 prediction operation — as a SELECT of
// the SQL engine over a relation the provider supplies (sqlengine.Relation):
// the rows are the source cases, the resolver gives the model's columns and the
// DMX prediction functions their meaning, and the binder tokenizes each case
// through the model's frozen attribute space. Partitioning, cancellation,
// filter, projection, ORDER BY and TOP are the engine's, shared with every SQL
// SELECT; a singleton join is the one-row, one-partition case.
//
// A SELECT source that only reads columns streams: the engine plans it inside
// the statement and its partitions feed the binder as they are scanned (see
// predictionSource).
//
// The statement goes on in the bind stage running on stage: resolving the
// model and binding its columns to the source's are the bind stage, the
// caseset is the source stage, and the engine's pass the scan stage.
func (p *Provider) predictionSelect(ctx context.Context, stage obs.StageTimer, ps *dmx.PredictionSelect) (*rowset.Rowset, error) {
	defer func() { stage.Stop() }()
	t := stage.Trace()
	e, err := p.entry(ps.Model)
	if err != nil {
		return nil, err
	}
	// e is an immutable catalog-snapshot entry: a concurrent INSERT INTO
	// trains against private clones and publishes a replacement entry, so
	// this statement reads a consistent (model, tokenizer, cases) triple for
	// its whole lifetime without taking any lock.
	if err := populated(e); err != nil {
		return nil, err
	}
	p.predsByModel.With(e.model.Def.Name).Inc()
	stage.Stop()
	stage = obs.StageTimer{}
	spSource := t.StartSpanStage(obs.StageSource, "caseset", "")
	rel, err := p.predictionSource(ctx, ps.Source)
	t.EndSpan(spSource)
	if err != nil {
		return nil, err
	}
	stage = t.StartStage(obs.StageBind)

	// A NATURAL join binds by name whatever the source has; an ON clause says
	// what it binds.
	def := e.model.Def
	var cols []core.ColumnSource
	if ps.Natural {
		cols = core.BindByName(def.Columns, rel.Schema)
	} else {
		// The binder checked the clause when the statement compiled; the
		// source's columns are bindColumns' to check.
		var onErr error
		bindings := ps.OnBindings(def, nil, func(_ lex.Pos, format string, args ...any) {
			onErr = cmp.Or(onErr, fmt.Errorf("provider: "+format, args...))
		})
		if onErr != nil {
			return nil, onErr
		}
		if cols, err = bindColumns(def.Name, def.Columns, bindings, rel.Schema, nil, true); err != nil {
			return nil, err
		}
	}
	if !slices.ContainsFunc(cols, func(c core.ColumnSource) bool { return c.Ord >= 0 }) {
		return nil, fmt.Errorf("provider: prediction join binds no model columns (source columns: %v)",
			rel.Schema.Names())
	}
	// Repeated prediction joins (and singleton WHERE <key> = ... statements)
	// probe the source table by case key; make sure the key column is indexed
	// so those probes are bucket lookups, not heap scans.
	p.indexPredictionKeys(ps.Source, def, cols)
	// Frozen tokenizer view: prediction never grows the attribute space.
	frozen := *e.tokenizer
	frozen.Freeze()
	binder, err := frozen.NewCaseBinder(cols)
	if err != nil {
		return nil, err
	}

	// Qualify the source schema with the join alias so t.[col] resolves.
	evalSchema := rel.Schema
	if ps.Alias != "" {
		qualified := make([]rowset.Column, evalSchema.Len())
		for i, c := range evalSchema.Columns {
			qualified[i] = rowset.Column{Name: ps.Alias + "." + c.Name, Type: c.Type, Nested: c.Nested}
		}
		evalSchema, err = rowset.NewSchema(qualified...)
		if err != nil {
			return nil, err
		}
	}

	pp := &predictPlan{
		ctx: ctx, entry: e, binder: binder,
		schema: evalSchema, model: ps.Model, targets: make(map[string]*predTarget),
	}
	// The frozen bench and DM_QUERY_LOG read the prediction scan's time from
	// the scan stage, like a SQL SELECT's.
	stage = stage.Next(obs.StageScan)
	rel.Schema, rel.Resolve, rel.Bind = evalSchema, pp.resolve, pp.caseBinder
	rel.Kind, rel.Label = "predict", obs.Label{Text: "model=", Arg: ps.Model}
	rel.Untyped = rowset.TypeText // a DMX result declares a type for every column
	out, err := p.Engine.QueryRelation(ctx, ps.Select, rel)
	// The source's cases are the rows the binder saw.
	spSource.SetRows(pp.bound.Load())
	t.AddRowsIn(pp.bound.Load())
	return out, err
}

// predictionSource plans a SELECT source that only reads columns to stream
// into the statement (sqlengine.Engine.PlanInput), so the source stage is its
// planning; any other source — a SHAPE, or a SELECT that computes items or
// merges rows — runs to its rows first. The relation's rows carry their
// nested tables as cells.
func (p *Provider) predictionSource(ctx context.Context, src dmx.Source) (sqlengine.Relation, error) {
	if in, err := p.Engine.PlanInput(ctx, src.Select); in != nil {
		return sqlengine.Relation{Schema: in.Schema, Input: in}, nil
	} else if err != nil {
		return sqlengine.Relation{}, err
	}
	cs, err := p.executeSource(ctx, src)
	if err != nil {
		return sqlengine.Relation{}, err
	}
	rs := cs.Rowset()
	return sqlengine.Relation{Schema: rs.Schema(), Rows: rs.Rows()}, nil
}

// indexPredictionKeys declares an index on each source-table column bound to
// one of the model's KEY columns, for the point lookups that follow; the
// statement's own full scan builds none. Best-effort: only a bare
// single-table source whose name is a table's, not a view's, names a table to
// index, and a failure to declare never fails the statement — the scan path
// works without it.
func (p *Provider) indexPredictionKeys(src dmx.Source, def *core.ModelDef, cols []core.ColumnSource) {
	if src.Select == nil || len(src.Select.From) != 1 {
		return
	}
	name := src.Select.From[0].Name
	if slices.ContainsFunc(p.Engine.ViewNames(), func(v string) bool { return lex.FoldEqual(v, name) }) {
		return
	}
	tbl, err := p.DB.Table(name)
	if err != nil {
		return
	}
	for i := range def.Columns {
		if def.Columns[i].Content != core.ContentKey || cols[i].Ord < 0 {
			continue
		}
		// A prediction join binds a model column to the source column of its name.
		ord, ok := tbl.Schema().Lookup(def.Columns[i].Name)
		if !ok {
			continue
		}
		name := tbl.Schema().Column(ord).Name
		if !tbl.HasIndex(name) {
			_ = tbl.CreateIndex(name) //nolint:errcheck // advisory index; lookups fall back to scanning
		}
	}
}

// predictPlan is the per-statement state behind the relation: the case binder
// (the statement's bindings composed with the frozen tokenizer) and what the
// statement's expressions resolve against. The engine compiles every
// expression of the statement (through resolve) before it opens the first
// partition; after that the plan is read-only and shared by every partition.
type predictPlan struct {
	// ctx is the statement's. The binder is frozen, so it tokenizes each batch
	// inline, on the partition's goroutine; bound counts the rows it saw.
	ctx    context.Context
	entry  *modelEntry
	binder *core.CaseBinder
	bound  atomic.Int64
	spare  atomic.Pointer[predictionBatch] // a done partition's, for the next to take

	// The alias-qualified source schema and model name expressions resolve
	// against, and every model column they predict.
	schema  *rowset.Schema
	model   string
	targets map[string]*predTarget
}

func (pp *predictPlan) compileExpr(e sqlengine.Expr) sqlengine.Compiled {
	return sqlengine.Compile(e, pp.schema, pp.resolve)
}

// caseBinder is the relation's per-partition hook. The binder it returns
// tokenizes a batch of source rows, where they lie, into the batch's cases and
// gives row i the frame {batch, i} that WHERE, the select items and the ORDER
// BY keys of the row all evaluate against. With reuse the partition's cases,
// prediction columns and frames — taken from a partition that is done, when
// there is one — are reset for every batch; without it they are fresh per
// batch, because a frame may outlive its batch. Otherwise the binder reads
// only shared immutable state.
func (pp *predictPlan) caseBinder(reuse bool) func([]rowset.Row, []any) (int, error) {
	var b *predictionBatch
	return func(rows []rowset.Row, ext []any) (int, error) {
		if rows == nil { // the partition is done: its state may serve another
			if b != nil {
				pp.spare.Store(b)
			}
			return 0, nil
		}
		pp.bound.Add(int64(len(rows)))
		if b == nil && reuse {
			b = pp.spare.Swap(nil)
		}
		if b == nil || !reuse {
			b = &predictionBatch{entry: pp.entry}
			b.preds = append(b.one[:0], make([]core.PredictionBatch, len(pp.targets))...)
		}
		b.cases.Reset()
		err := pp.binder.TokenizeRows(pp.ctx, nil, rows, &b.cases)
		n := b.cases.Len()
		for _, t := range pp.targets {
			b.preds[t.slot].Reset(n, t.hist)
		}
		b.frames = slices.Grow(b.frames[:0], n)[:n]
		for i := range b.frames {
			b.frames[i] = predictionContext{predictionBatch: b, i: i}
			ext[i] = &b.frames[i]
		}
		return n, err
	}
}

// predTarget is one model column a statement predicts, resolved when the
// statement compiles: how to predict it, whether a select item reads its
// histograms, and which slot of a batch's predictions holds the answer.
type predTarget struct {
	slot  int
	mc    *core.ColumnDef
	attr  int    // trained attribute index; scalar columns only
	table string // the TABLE column's name; nested tables only
	hist  bool
	err   error // the column cannot be predicted; reported when first evaluated
}

// target resolves a model column name to its predTarget; every spelling of one
// column shares a target, and so a cache slot.
func (pp *predictPlan) target(column string) *predTarget {
	if t, ok := lex.LookupFold(pp.targets, column); ok {
		return t
	}
	t := &predTarget{slot: len(pp.targets)}
	pp.targets[strings.ToLower(column)] = t
	def := pp.entry.model.Def
	mc, ok := def.Column(column)
	if !ok {
		t.err = fmt.Errorf("provider: model %s has no column %q", def.Name, column)
		return t
	}
	t.mc = mc
	if mc.Content == core.ContentTable {
		// A nested table's prediction is its histogram.
		t.table, t.hist = mc.Name, true
	} else if t.attr, ok = pp.entry.model.Space.Lookup(mc.Name); !ok {
		t.err = fmt.Errorf("provider: column %q has no trained attribute", column)
	}
	return t
}

// predictionBatch is the model's side of one batch of source rows: their cases
// and, by predTarget.slot, the columns of the predictions the statement reads.
// A case is predicted when its row first reads the target, so a row the WHERE
// drops, or one that never reads a target, costs the model nothing.
type predictionBatch struct {
	entry  *modelEntry
	cases  core.Cases
	preds  []core.PredictionBatch
	one    [1]core.PredictionBatch // preds, when the statement predicts one column
	frames []predictionContext
}

// predictionContext is one row's frame state (sqlengine.Env.Ext): case i of
// its batch. Bit s of done says the case's prediction of the target in slot s
// is in the batch's columns; a target in slot 64 or beyond has no bit and is
// predicted on every read.
type predictionContext struct {
	*predictionBatch
	i    int
	done uint64
}

// scored returns the predictions of t of the frame's batch and the frame's
// case in it, predicting the case on the row's first read of t.
func scored(env *sqlengine.Env, t *predTarget) (*core.PredictionBatch, int, error) {
	if t.err != nil {
		return nil, 0, t.err
	}
	pc := env.Ext.(*predictionContext)
	b, bit := &pc.preds[t.slot], uint64(1)<<t.slot
	if pc.done&bit == 0 {
		if err := core.PredictInto(pc.entry.model.Trained, pc.cases.Case(pc.i), t.attr, t.table, b, pc.i); err != nil {
			return nil, 0, err
		}
		pc.done |= bit
	}
	return b, pc.i, nil
}

// resolve is the statement's sqlengine.Resolver. Column references outside the
// source schema — [Model].[Col], and bare references to the model's PREDICT
// columns — compile to the prediction estimate, and the DMX prediction
// functions to closures over the case in the frame. Which function a call
// names, which model column it is about and its literal arguments are settled
// here, once per statement; what is wrong with a call is reported when a case
// first evaluates it, after the arguments evaluated before it.
func (pp *predictPlan) resolve(e sqlengine.Expr) sqlengine.Compiled {
	switch x := e.(type) {
	case *sqlengine.ColumnRef:
		mc, ok := pp.entry.model.Def.Column(x.Name)
		if !ok || !(strings.EqualFold(x.Qualifier, pp.model) || x.Qualifier == "" && mc.IsOutput()) {
			return nil
		}
		return estimate(pp.target(x.Name), allRows)
	case *sqlengine.FuncCall:
		if dmx.IsPredictionFunc(x.Name) {
			return pp.predictionFunc(x)
		}
	}
	return nil
}

// estimate compiles the prediction of t: the estimate of a scalar column, the
// first maxRows (all when <= 0) predicted rows of a nested table.
func estimate(t *predTarget, maxRows func(*sqlengine.Env) (int, error)) sqlengine.Compiled {
	if t.table == "" {
		return statistic(t, func(b *core.PredictionBatch, i int) rowset.Value { return b.Estimate[i] })
	}
	return read(t, func(env *sqlengine.Env, b *core.PredictionBatch, i int) (rowset.Value, error) {
		n, err := maxRows(env)
		if err != nil {
			return nil, err
		}
		return tableRowset(t.mc, b.Histogram[i], n)
	})
}

func allRows(*sqlengine.Env) (int, error) { return 0, nil }

// read compiles a use of t's prediction: what get makes, in the row's frame,
// of case i of the scored batch. A use that reads histograms sets t.hist.
func read(t *predTarget, get func(env *sqlengine.Env, b *core.PredictionBatch, i int) (rowset.Value, error)) sqlengine.Compiled {
	return func(env *sqlengine.Env) (rowset.Value, error) {
		b, i, err := scored(env, t)
		if err != nil {
			return nil, err
		}
		return get(env, b, i)
	}
}

// statistic compiles one figure of t's prediction.
func statistic(t *predTarget, get func(b *core.PredictionBatch, i int) rowset.Value) sqlengine.Compiled {
	return read(t, func(_ *sqlengine.Env, b *core.PredictionBatch, i int) (rowset.Value, error) { return get(b, i), nil })
}

// predictionFunc compiles a call to one of the DMX prediction functions.
func (pp *predictPlan) predictionFunc(f *sqlengine.FuncCall) sqlengine.Compiled {
	switch f.Name {
	case dmx.FuncTopCount:
		return pp.topCount(f)
	case dmx.FuncCluster, dmx.FuncClusterProbability:
		cp, ok := pp.entry.model.Trained.(core.ClusterPredictor)
		if !ok {
			return sqlengine.Failing(fmt.Errorf("provider: model %s (%s) is not a clustering model",
				pp.entry.model.Def.Name, pp.entry.model.Trained.AlgorithmName()))
		}
		wantID := f.Name == dmx.FuncCluster
		return func(env *sqlengine.Env) (rowset.Value, error) {
			pc := env.Ext.(*predictionContext)
			p, err := cp.PredictCluster(pc.cases.Case(pc.i))
			if err != nil {
				return nil, err
			}
			if wantID {
				return p.Estimate, nil
			}
			return p.Prob, nil
		}
	}
	// Every other function is about the model column its first argument names.
	if len(f.Args) < 1 {
		return sqlengine.Failing(fmt.Errorf("provider: %s needs a model column argument", f.Name))
	}
	cr, ok := f.Args[0].(*sqlengine.ColumnRef)
	if !ok {
		return sqlengine.Failing(fmt.Errorf("provider: %s: first argument must be a model column reference", f.Name))
	}
	t := pp.target(cr.Name)
	switch f.Name {
	case dmx.FuncPredict, dmx.FuncPredictAssociation:
		maxRows := allRows
		if len(f.Args) > 1 {
			maxRows = pp.intArg(f.Args[1])
		}
		return estimate(t, maxRows)
	case dmx.FuncPredictProbability:
		if len(f.Args) == 1 {
			return statistic(t, func(b *core.PredictionBatch, i int) rowset.Value { return b.Prob[i] })
		}
		want := pp.compileExpr(f.Args[1])
		t.hist = true
		return read(t, func(env *sqlengine.Env, b *core.PredictionBatch, i int) (rowset.Value, error) {
			v, err := want(env)
			if err != nil {
				return nil, err
			}
			v = rowset.Normalize(v)
			for _, bucket := range b.Histogram[i] {
				if rowset.Equal(bucket.Value, v) {
					return bucket.Prob, nil
				}
			}
			return 0.0, nil
		})
	case dmx.FuncPredictSupport:
		return statistic(t, func(b *core.PredictionBatch, i int) rowset.Value { return b.Support[i] })
	case dmx.FuncPredictStdev:
		return statistic(t, func(b *core.PredictionBatch, i int) rowset.Value { return b.Stdev[i] })
	case dmx.FuncPredictVariance:
		return statistic(t, func(b *core.PredictionBatch, i int) rowset.Value { return b.Stdev[i] * b.Stdev[i] })
	case dmx.FuncPredictHistogram:
		t.hist = true
		return read(t, func(_ *sqlengine.Env, b *core.PredictionBatch, i int) (rowset.Value, error) {
			return histogramRowset(cr.Name, b.Histogram[i])
		})
	}
	return pp.rangeOf(f.Name, cr.Name, t)
}

// topCount compiles TopCount(<table>, <rank column>, <n>): the n rows of the
// table expression ranking highest on the column.
func (pp *predictPlan) topCount(f *sqlengine.FuncCall) sqlengine.Compiled {
	if len(f.Args) != 3 {
		return sqlengine.Failing(fmt.Errorf("provider: TopCount(<table>, <rank column>, <n>)"))
	}
	tableArg := pp.compileExpr(f.Args[0])
	rankRef, isRef := f.Args[1].(*sqlengine.ColumnRef)
	count := pp.intArg(f.Args[2])
	return func(env *sqlengine.Env) (rowset.Value, error) {
		tv, err := tableArg(env)
		if err != nil {
			return nil, err
		}
		table, ok := tv.(*rowset.Rowset)
		if !ok {
			return nil, fmt.Errorf("provider: TopCount: first argument is %s, not a table", rowset.TypeOf(tv))
		}
		if !isRef {
			return nil, fmt.Errorf("provider: TopCount: second argument must be a column of the table")
		}
		n, err := count(env)
		if err != nil {
			return nil, err
		}
		ord, ok := table.Schema().Lookup(rankRef.Name)
		if !ok {
			return nil, fmt.Errorf("provider: TopCount: table has no column %q", rankRef.Name)
		}
		sorted := table.Clone()
		sorted.Sort([]int{ord}, []bool{true})
		out := rowset.New(sorted.Schema())
		for i := 0; i < sorted.Len() && i < n; i++ {
			if err := out.Append(sorted.Row(i)); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
}

// intArg compiles an integer argument; a literal is checked and converted
// here, once.
func (pp *predictPlan) intArg(e sqlengine.Expr) func(*sqlengine.Env) (int, error) {
	arg := pp.compileExpr(e)
	get := func(env *sqlengine.Env) (int, error) {
		v, err := arg(env)
		if err != nil {
			return 0, err
		}
		n, ok := rowset.Normalize(v).(int64)
		if !ok {
			return 0, fmt.Errorf("provider: expected an integer argument, got %s", rowset.TypeOf(v))
		}
		return int(n), nil
	}
	if _, ok := e.(*sqlengine.Literal); ok {
		n, err := get(nil) // a literal reads nothing from the frame
		return func(*sqlengine.Env) (int, error) { return n, err }
	}
	return get
}

// rangeOf compiles RangeMin/RangeMid/RangeMax: the numeric bounds of the
// predicted DISCRETIZED bucket, turning a bucket label back into a usable
// number (the open first/last buckets close over the observed data range).
func (pp *predictPlan) rangeOf(fn, column string, t *predTarget) sqlengine.Compiled {
	idx, ok := pp.entry.model.Space.Lookup(column)
	if !ok {
		return sqlengine.Failing(fmt.Errorf("provider: column %q has no trained attribute", column))
	}
	a := pp.entry.model.Space.Attr(idx)
	if len(a.Cuts) == 0 {
		return sqlengine.Failing(fmt.Errorf("provider: %s requires a DISCRETIZED column, %q is not", fn, column))
	}
	return statistic(t, func(b *core.PredictionBatch, i int) rowset.Value {
		label, _ := b.Estimate[i].(string)
		lo, hi, ok := a.BucketBounds(a.StateIndex(label))
		switch {
		case !ok:
			return nil
		case fn == dmx.FuncRangeMin:
			return lo
		case fn == dmx.FuncRangeMax:
			return hi
		}
		return (lo + hi) / 2
	})
}

// tableRowset renders a nested-table prediction as a rowset whose key column
// carries the model's nested key column name.
func tableRowset(mc *core.ColumnDef, h []core.Bucket, maxRows int) (rowset.Value, error) {
	keyName := "KEY"
	for i := range mc.Table {
		if mc.Table[i].Content == core.ContentKey {
			keyName = mc.Table[i].Name
			break
		}
	}
	schema := rowset.MustSchema(
		rowset.Column{Name: keyName, Type: rowset.TypeText},
		rowset.Column{Name: "$PROBABILITY", Type: rowset.TypeDouble},
		rowset.Column{Name: "$SUPPORT", Type: rowset.TypeDouble},
	)
	out := rowset.New(schema)
	for i, b := range h {
		if maxRows > 0 && i >= maxRows {
			break
		}
		if err := out.AppendVals(rowset.FormatValue(b.Value), b.Prob, b.Support); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// histogramRowset renders PredictHistogram output (Section 3.2.4: "a
// histogram provides multiple possible prediction values, each accompanied
// by a probability and other statistics").
func histogramRowset(column string, h []core.Bucket) (*rowset.Rowset, error) {
	valueType := rowset.TypeText
	if len(h) > 0 && rowset.TypeOf(h[0].Value) != rowset.TypeNull {
		valueType = rowset.TypeOf(h[0].Value)
	}
	schema := rowset.MustSchema(
		rowset.Column{Name: column, Type: valueType},
		rowset.Column{Name: "$PROBABILITY", Type: rowset.TypeDouble},
		rowset.Column{Name: "$SUPPORT", Type: rowset.TypeDouble},
		rowset.Column{Name: "$VARIANCE", Type: rowset.TypeDouble},
	)
	out := rowset.New(schema)
	for _, b := range h {
		if err := out.AppendVals(b.Value, b.Prob, b.Support, b.Variance); err != nil {
			return nil, err
		}
	}
	return out, nil
}
