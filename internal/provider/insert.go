package provider

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/algo/discretize"
	"repro/internal/core"
	"repro/internal/dmx"
	"repro/internal/lex"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rowset"
)

func splitStatements(script string) ([]string, error) {
	return lex.SplitStatements(script)
}

// insertInto populates a mining model (paper Section 3.3): execute the
// source, bind its columns to the model's columns, tokenize into cases, run
// the discretization pipeline, and (re)train the model's algorithm over all
// cases consumed so far.
func (p *Provider) insertInto(ctx context.Context, ins *dmx.InsertInto) (*rowset.Rowset, error) {
	t := obs.FromContext(ctx)
	e, err := p.entry(ins.Model)
	if err != nil {
		return nil, err
	}
	p.trainsByModel.With(e.model.Def.Name).Inc()
	spSource := t.StartSpanStage(obs.StageSource, "caseset", "")
	src, err := p.executeSource(ctx, ins.Source)
	if err != nil {
		t.EndSpan(spSource)
		return nil, err
	}
	spSource.SetRows(int64(src.Len()))
	t.EndSpan(spSource)
	t.AddRowsIn(int64(src.Len()))
	workers := p.workers()
	t.SetParallelism(workers)
	// Like the predict scan, the bind span brackets the worker fork/join; the
	// workers themselves never touch the trace.
	spBind := t.StartSpan("bind", fmt.Sprintf("workers=%d", workers))
	bound, err := applyBindings(ctx, e.model.Def, ins.Bindings, src, workers)
	if err != nil {
		t.EndSpan(spBind)
		return nil, err
	}
	spBind.SetRows(int64(bound.Len()))
	t.EndSpan(spBind)

	spTrain := t.StartSpanStage(obs.StageTrain, "train", "algorithm="+e.model.Def.Algorithm)
	// The deferred EndSpan covers every error return below; any "tokenize"
	// child abandoned by an early return is closed by EndSpan's defensive pop.
	defer t.EndSpan(spTrain)
	// Copy-on-write training commit: writers serialize on commitMu, but
	// readers never wait — they keep using the published snapshot while this
	// run tokenizes, discretizes, and trains against private clones, and see
	// the new model only when the finished entry is published atomically.
	p.commitMu.Lock()
	defer p.commitMu.Unlock()
	// Re-resolve under the commit lock: the model may have been dropped or
	// reset while the source query ran.
	key := strings.ToLower(ins.Model)
	cur, ok := p.catalog[key]
	if !ok {
		return nil, &core.NotFoundError{Kind: "mining model", Name: ins.Model}
	}
	def := cur.model.Def
	if def != e.model.Def {
		// Dropped and re-created while the source ran: the bindings above were
		// resolved against the old definition and may not fit the new one.
		return nil, fmt.Errorf("provider: mining model %q was re-created while the training source was executing; retry", ins.Model)
	}

	// Clone the published space and cases before touching them: tokenization
	// grows the attribute space and discretization rewrites case values in
	// place, and both would otherwise reach through the live snapshot into a
	// concurrent prediction's working state.
	space := cur.tokenizer.Space.Clone()
	tok := core.NewTokenizerWithSpace(def, space)
	cases := core.CloneCases(cur.cases)

	// Tokenization stays on this single consumer goroutine: it grows the
	// cloned attribute space, and state dictionaries are built in first-seen
	// order, so a parallel tokenize would make attribute indexes depend on
	// scheduling. The parallelizable part of the training scan — per-row
	// binding and nested reshaping — already ran above, outside the lock.
	spTok := t.StartSpan("tokenize", "")
	cs, err := tok.Tokenize(bound)
	if err != nil {
		t.EndSpan(spTok)
		return nil, err
	}
	spTok.SetRows(int64(len(cs.Cases)))
	t.EndSpan(spTok)
	cases = append(cases, cs.Cases...)
	full := &core.Caseset{Space: space, Cases: cases}

	if err := p.discretizePipeline(def, full); err != nil {
		return nil, err
	}

	algo, err := p.Registry.Lookup(def.Algorithm)
	if err != nil {
		return nil, err
	}
	targets := full.Space.Targets()
	trained, err := algo.Train(full, targets, def.Params)
	if err != nil {
		return nil, err
	}
	fresh := &modelEntry{
		model:     &core.Model{Def: def, Space: space, Trained: trained, CaseCount: len(cases)},
		tokenizer: tok,
		cases:     cases,
	}
	if err := p.saveModel(fresh); err != nil {
		return nil, err
	}
	p.catalog[key] = fresh
	p.publishLocked()

	spTrain.SetRows(int64(len(cs.Cases)))
	rs := rowset.New(rowset.MustSchema(rowset.Column{Name: "cases consumed", Type: rowset.TypeLong}))
	if err := rs.AppendVals(int64(len(cs.Cases))); err != nil {
		return nil, err
	}
	return rs, nil
}

// executeSource runs a SHAPE or SELECT source against the SQL engine.
func (p *Provider) executeSource(ctx context.Context, src dmx.Source) (*rowset.Rowset, error) {
	switch {
	case src.Shape != nil:
		return src.Shape.ExecuteContext(ctx, p.Engine)
	case src.Select != nil:
		return p.Engine.QueryContext(ctx, src.Select)
	}
	return nil, fmt.Errorf("provider: statement has no data source")
}

// discretizePipeline installs cut points for every DISCRETIZED column that
// does not have them yet. Cut points are computed once, from the first
// training batch that mentions the attribute, and frozen thereafter —
// prediction inputs bucket through the same cuts.
func (p *Provider) discretizePipeline(def *core.ModelDef, full *core.Caseset) error {
	for i := range def.Columns {
		col := &def.Columns[i]
		if col.Content != core.ContentAttribute || col.AttrType != core.AttrDiscretized {
			continue
		}
		idx, ok := full.Space.Lookup(col.Name)
		if !ok {
			continue
		}
		attr := full.Space.Attr(idx)
		if len(attr.Cuts) > 0 {
			continue // already discretized in an earlier INSERT
		}
		var values []float64
		for ci := range full.Cases {
			if v, ok := full.Cases[ci].Continuous(idx); ok {
				values = append(values, v)
			}
		}
		if len(values) == 0 {
			continue
		}
		labels := p.entropyLabels(full, idx)
		cuts, err := discretize.Cuts(col.DiscretizeMethod, values, labels, col.DiscretizeBuckets)
		if err != nil {
			return fmt.Errorf("provider: column %q: %w", col.Name, err)
		}
		full.DiscretizeAttr(idx, cuts)
	}
	return nil
}

// entropyLabels supplies class labels for supervised (ENTROPY) discretization
// when the model has a discrete target other than the column being cut.
func (p *Provider) entropyLabels(full *core.Caseset, exclude int) []int {
	var labelAttr = -1
	for _, t := range full.Space.Targets() {
		if t == exclude {
			continue
		}
		if full.Space.Attr(t).Kind == core.KindDiscrete {
			labelAttr = t
			break
		}
	}
	if labelAttr < 0 {
		return nil
	}
	labels := make([]int, 0, full.Len())
	for ci := range full.Cases {
		if _, ok := full.Cases[ci].Continuous(exclude); !ok {
			continue
		}
		st := full.Cases[ci].Discrete(labelAttr)
		if st < 0 {
			st = 0
		}
		labels = append(labels, st)
	}
	return labels
}

// applyBindings reshapes the source rowset into the model's caseset layout.
// With an explicit binding list, bindings map positionally onto the source
// columns when the counts line up (SKIP entries consume unbound source
// columns, the DMX idiom for RELATE keys); otherwise, and when no bindings
// are given, columns bind by name. The per-row projection (including nested
// reshaping, the expensive part of a hierarchical training scan) runs on the
// workers pool; rows keep their source order.
func applyBindings(ctx context.Context, def *core.ModelDef, bindings []dmx.Binding, src *rowset.Rowset, workers int) (*rowset.Rowset, error) {
	if len(bindings) == 0 {
		bindings = make([]dmx.Binding, 0, len(def.Columns))
		for i := range def.Columns {
			bindings = append(bindings, dmx.Binding{Name: def.Columns[i].Name})
		}
	}
	plan, outCols, err := bindColumns(def.Name, def.Columns, bindings, src.Schema(), false)
	if err != nil {
		return nil, err
	}
	outSchema, err := rowset.NewSchema(outCols...)
	if err != nil {
		return nil, err
	}
	srcRows := src.Rows()
	// Identity plan — every model column binds the same-ordinal scalar source
	// column — passes the source rows through unshaped: the caseset shares the
	// executor's rows under the model-named schema, no per-row copy at all.
	if len(plan) == src.Schema().Len() {
		identity := true
		for i, b := range plan {
			if b.srcOrd != i || b.nestedSchema != nil {
				identity = false
				break
			}
		}
		if identity {
			return rowset.Adopt(outSchema, srcRows), nil
		}
	}
	rows := make([]rowset.Row, len(srcRows))
	err = par.ForEachCtx(ctx, len(srcRows), workers, func(i int) error {
		var err error
		rows[i], err = bindRow(plan, srcRows[i], make(rowset.Row, 0, len(plan)))
		return err
	})
	if err != nil {
		return nil, err
	}
	// The projected rows reuse values straight out of the (already canonical)
	// source rowset, so the result adopts them instead of re-normalizing every
	// cell a second time.
	return rowset.Adopt(outSchema, rows), nil
}

// bindRow appends to dst the model-layout row plan makes of one source row:
// each bound column's cell, nested tables reshaped through their nested
// binding (a NULL cell is an empty table). INSERT INTO's reshaping and the
// prediction join's case binder both go through it.
func bindRow(plan []boundCol, src, dst rowset.Row) (rowset.Row, error) {
	for _, b := range plan {
		v := src[b.srcOrd]
		if b.nestedSchema != nil {
			nested, ok := v.(*rowset.Rowset)
			switch {
			case v == nil:
				nested = rowset.New(b.nestedSrcSchema)
			case !ok:
				return nil, &NestedColumnTypeError{Column: b.name, Got: rowset.TypeOf(v).String()}
			}
			nv, err := reshapeNested(nested, b)
			if err != nil {
				return nil, err
			}
			v = nv
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// boundCol is one resolved binding: which source ordinal feeds which model
// column, plus the nested projection for TABLE columns.
type boundCol struct {
	name            string
	srcOrd          int
	nestedSchema    *rowset.Schema // output nested schema (model names)
	nestedSrcSchema *rowset.Schema // source nested schema
	nestedOrds      []int          // source ordinals inside the nested table
}

// bindColumns resolves a binding list against model columns and a source
// schema, returning the projection plan and the output columns. INSERT INTO
// binds positionally when the binding list covers every source column (the
// DMX convention, with SKIP consuming unbound columns) and by name
// otherwise; prediction joins pass byNameOnly because their bindings are
// derived from names in the first place.
func bindColumns(model string, cols []core.ColumnDef, bindings []dmx.Binding, src *rowset.Schema, byNameOnly bool) ([]boundCol, []rowset.Column, error) {
	positional := !byNameOnly && len(bindings) == len(src.Columns)
	var plan []boundCol
	var outCols []rowset.Column
	for bi, b := range bindings {
		if b.Skip {
			if !positional {
				return nil, nil, fmt.Errorf("provider: model %s: SKIP requires the binding list to match the source column count", model)
			}
			continue
		}
		mc, ok := findColumnDef(cols, b.Name)
		if !ok {
			return nil, nil, fmt.Errorf("provider: model %s has no column %q", model, b.Name)
		}
		var srcOrd int
		if positional {
			srcOrd = bi
		} else {
			srcOrd, ok = src.Lookup(b.Name)
			if !ok {
				return nil, nil, fmt.Errorf("provider: source has no column %q for model %s (source columns: %v)",
					b.Name, model, src.Names())
			}
		}
		bc := boundCol{name: mc.Name, srcOrd: srcOrd}
		outCol := rowset.Column{Name: mc.Name, Type: src.Column(srcOrd).Type, Nested: src.Column(srcOrd).Nested}
		if mc.Content == core.ContentTable {
			nestedSrc := src.Column(srcOrd).Nested
			if nestedSrc == nil {
				return nil, nil, fmt.Errorf("provider: model %s column %q: source column is not a nested table", model, mc.Name)
			}
			nb := b.Nested
			if len(nb) == 0 {
				nb = make([]dmx.Binding, 0, len(mc.Table))
				for i := range mc.Table {
					nb = append(nb, dmx.Binding{Name: mc.Table[i].Name})
				}
			}
			nplan, ncols, err := bindColumns(model, mc.Table, nb, nestedSrc, byNameOnly)
			if err != nil {
				return nil, nil, err
			}
			nschema, err := rowset.NewSchema(ncols...)
			if err != nil {
				return nil, nil, err
			}
			bc.nestedSchema = nschema
			bc.nestedSrcSchema = nestedSrc
			for _, np := range nplan {
				bc.nestedOrds = append(bc.nestedOrds, np.srcOrd)
			}
			outCol.Type = rowset.TypeTable
			outCol.Nested = nschema
		}
		plan = append(plan, bc)
		outCols = append(outCols, outCol)
	}
	if len(plan) == 0 {
		return nil, nil, fmt.Errorf("provider: model %s: binding list binds no columns", model)
	}
	return plan, outCols, nil
}

func findColumnDef(cols []core.ColumnDef, name string) (*core.ColumnDef, bool) {
	for i := range cols {
		if strings.EqualFold(cols[i].Name, name) {
			return &cols[i], true
		}
	}
	return nil, false
}

// reshapeNested projects a nested source rowset through the nested binding.
// Identity projections share the nested rows under the model-named schema;
// either way the values are adopted, not re-normalized — they came out of the
// executor canonical.
func reshapeNested(nested *rowset.Rowset, b boundCol) (*rowset.Rowset, error) {
	src := nested.Rows()
	if len(b.nestedOrds) == nested.Schema().Len() {
		identity := true
		for i, o := range b.nestedOrds {
			if o != i {
				identity = false
				break
			}
		}
		if identity {
			return rowset.Adopt(b.nestedSchema, src), nil
		}
	}
	rows := make([]rowset.Row, len(src))
	for i, r := range src {
		row := make(rowset.Row, len(b.nestedOrds))
		for j, o := range b.nestedOrds {
			row[j] = r[o]
		}
		rows[i] = row
	}
	return rowset.Adopt(b.nestedSchema, rows), nil
}
