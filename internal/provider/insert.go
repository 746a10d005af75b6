package provider

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/algo/discretize"
	"repro/internal/core"
	"repro/internal/dmx"
	"repro/internal/lex"
	"repro/internal/obs"
	"repro/internal/rowset"
	"repro/internal/shape"
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
	spSource.SetRows(int64(len(src.Rows)))
	t.EndSpan(spSource)
	t.AddRowsIn(int64(len(src.Rows)))
	// The statement's column list and the model's columns compose into one
	// plan over the caseset's own rows — the parent rows and the stored child
	// rows; nothing is copied or reshaped here.
	spBind := t.StartSpan("bind", "")
	cols, err := bindColumns(e.model.Def.Name, e.model.Def.Columns, ins.Bindings, src.Schema, src.Tables, false)
	t.EndSpan(spBind)
	if err != nil {
		return nil, err
	}

	spTrain := t.StartSpanStage(obs.StageTrain, "train", "")
	spTrain.SetLabel(obs.Label{Text: "algorithm=", Arg: e.model.Def.Algorithm})
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
	// grows the attribute space and discretization rewrites cells in place,
	// and both would otherwise reach through the live snapshot into a
	// concurrent prediction's working state.
	space := cur.tokenizer.Space.Clone()
	tok := core.NewTokenizerWithSpace(def, space)
	full := &core.Caseset{Space: space, Cases: cur.cases.Clone()}
	before := full.Len()

	// Tokenization stays on this single consumer goroutine: it grows the
	// cloned attribute space, and state dictionaries are built in first-seen
	// order, so a parallel tokenize would make attribute indexes depend on
	// scheduling.
	spTok := t.StartSpan("tokenize", "")
	binder, err := tok.NewCaseBinder(cols)
	if err == nil {
		err = binder.TokenizeRows(src.Rows, &full.Cases)
	}
	if err != nil {
		t.EndSpan(spTok)
		return nil, err
	}
	consumed := full.Len() - before
	spTok.SetRows(int64(consumed))
	t.EndSpan(spTok)

	// A cancelled or timed-out statement stops between the stages, and
	// training itself stops when ctx is done: nothing is saved or published.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := p.discretizePipeline(def, full); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	algo, err := p.Registry.Lookup(def.Algorithm)
	if err != nil {
		return nil, err
	}
	targets := full.Space.Targets()
	trained, err := algo.Train(ctx, full, targets, def.Params, p.parallelism)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	fresh := &modelEntry{
		model:     &core.Model{Def: def, Space: space, Trained: trained, CaseCount: full.Len()},
		tokenizer: tok,
		cases:     full.Cases,
	}
	if err := p.saveModel(fresh); err != nil {
		return nil, err
	}
	p.catalog[key] = fresh
	p.publishLocked()

	spTrain.SetRows(int64(consumed))
	rs := rowset.New(rowset.MustSchema(rowset.Column{Name: "cases consumed", Type: rowset.TypeLong}))
	if err := rs.AppendVals(int64(consumed)); err != nil {
		return nil, err
	}
	return rs, nil
}

// executeSource runs a SHAPE or SELECT source against the SQL engine. A
// SELECT is the caseset without APPENDs.
func (p *Provider) executeSource(ctx context.Context, src dmx.Source) (*shape.Caseset, error) {
	switch {
	case src.Shape != nil:
		return src.Shape.Run(ctx, p.Engine)
	case src.Select != nil:
		rs, err := p.Engine.QueryContext(ctx, src.Select)
		if err != nil {
			return nil, err
		}
		return &shape.Caseset{Schema: rs.Schema(), Rows: rs.Rows()}, nil
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
		values := make([]float64, 0, full.Len())
		for i := range full.Cells {
			if int(full.Cells[i].Attr) == idx {
				values = append(values, full.Cells[i].Value())
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
	for ci := 0; ci < full.Len(); ci++ {
		c := full.Case(ci)
		if !c.Has(exclude) {
			continue
		}
		labels = append(labels, max(c.Discrete(labelAttr), 0))
	}
	return labels
}

// bindColumns resolves a binding list against one level of columns — the
// model's, or a TABLE column's — and a source schema: for every column, where
// in a source row its values are (Ord -1: nothing binds it). With no binding
// list every column binds the source column of its name. INSERT INTO binds
// positionally when the binding list covers every source column (the DMX
// convention, with SKIP consuming unbound columns — the idiom for RELATE
// keys) and by name otherwise; prediction joins pass byNameOnly because their
// bindings are derived from names in the first place. tables are the TABLE
// columns a caseset keeps apart from its rows, the last len(tables) columns of
// src; a model TABLE column bound to one reads its rows from there.
func bindColumns(model string, cols []core.ColumnDef, bindings []dmx.Binding, src *rowset.Schema, tables []rowset.Groups, byNameOnly bool) ([]core.ColumnSource, error) {
	if len(bindings) == 0 {
		for i := range cols {
			bindings = append(bindings, dmx.Binding{Name: cols[i].Name})
		}
	}
	positional := !byNameOnly && len(bindings) == len(src.Columns)
	out := make([]core.ColumnSource, len(cols))
	for i := range out {
		out[i].Ord = -1
	}
	bound := false
	for bi, b := range bindings {
		if b.Skip {
			if !positional {
				return nil, fmt.Errorf("provider: model %s: SKIP requires the binding list to match the source column count", model)
			}
			continue
		}
		ci := slices.IndexFunc(cols, func(c core.ColumnDef) bool { return strings.EqualFold(c.Name, b.Name) })
		if ci < 0 {
			return nil, fmt.Errorf("provider: model %s has no column %q", model, b.Name)
		}
		srcOrd := bi
		if !positional {
			var ok bool
			if srcOrd, ok = src.Lookup(b.Name); !ok {
				return nil, fmt.Errorf("provider: source has no column %q for model %s (source columns: %v)",
					b.Name, model, src.Names())
			}
		}
		out[ci].Ord, bound = srcOrd, true
		apart := srcOrd - (src.Len() - len(tables))
		if cols[ci].Content != core.ContentTable {
			if apart >= 0 {
				return nil, fmt.Errorf("provider: model %s column %q: source column %q is a nested table", model, cols[ci].Name, src.Column(srcOrd).Name)
			}
			continue
		}
		nestedSrc := src.Column(srcOrd).Nested
		if nestedSrc == nil {
			return nil, fmt.Errorf("provider: model %s column %q: source column is not a nested table", model, cols[ci].Name)
		}
		if apart >= 0 {
			out[ci].Rows = &tables[apart]
		}
		nested, err := bindColumns(model, cols[ci].Table, b.Nested, nestedSrc, nil, byNameOnly)
		if err != nil {
			return nil, err
		}
		for _, n := range nested {
			out[ci].Nested = append(out[ci].Nested, n.Ord)
		}
	}
	if !bound {
		return nil, fmt.Errorf("provider: model %s: binding list binds no columns", model)
	}
	return out, nil
}
