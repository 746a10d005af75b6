package provider

import (
	"context"
	"fmt"

	"repro/internal/dmx"
	"repro/internal/lex"
	"repro/internal/obs"
	"repro/internal/rowset"
	"repro/internal/schemarowset"
	"repro/internal/shape"
	"repro/internal/sqlengine"
)

// explainStmt executes EXPLAIN [ANALYZE]. Bare EXPLAIN builds the operator
// plan as a span tree without running the statement and renders it with NULL
// times and row counts. EXPLAIN ANALYZE runs the wrapped statement under the
// statement's trace and renders the measured span tree — per-operator wall
// time and rows — as the result rowset.
func (s *Session) explainStmt(ctx context.Context, ex *dmx.Explain) (*rowset.Rowset, error) {
	if !ex.Analyze {
		root, err := s.p.planSpan(ctx, ex)
		if err != nil {
			return nil, err
		}
		return schemarowset.Explain(root, false)
	}
	t := obs.FromContext(ctx)
	if t == nil {
		// Observability is disabled (or the caller bypassed ExecuteContext):
		// ANALYZE still needs a span collector, so run under a local trace
		// that lives only for this statement.
		t = obs.NewTrace(ex.Command, "")
		t.SetKind("EXPLAIN")
		ctx = obs.WithTrace(ctx, t)
	}
	// Per-operator wall time is sampled only under ANALYZE: detailed mode
	// makes streaming operators read the clock around every row, a cost
	// normal traced execution must not pay (spans there count rows only).
	t.SetDetailed(true)
	rs, err := s.executeExplained(ctx, t, ex)
	if err != nil {
		return nil, err
	}
	return schemarowset.Explain(t.SpanTree(int64(rs.Len())), true)
}

// executeExplained dispatches the wrapped statement exactly as
// executeTracedArgs would have dispatched it unprefixed: parsed DMX runs
// through the checked DMX path, a SHAPE source through the shaping service,
// anything else through the SQL engine. The parser rejects nested EXPLAIN,
// so this cannot recurse.
func (s *Session) executeExplained(ctx context.Context, t *obs.Trace, ex *dmx.Explain) (*rowset.Rowset, error) {
	p := s.p
	if ex.Stmt != nil {
		return s.execDMXChecked(ctx, ex.Stmt)
	}
	if sc := lex.NewScanner(ex.Command); sc.Peek().Is("SHAPE") {
		defer t.StartStage(obs.StageSource)()
		return shape.ExecuteStringContext(ctx, p.Engine, ex.Command)
	}
	defer t.StartStage(obs.StageScan)()
	return p.Engine.ExecContext(ctx, ex.Command)
}

// planSpan builds the plan-only span tree for a statement that has not run:
// the same operator nodes execution would record, in execution order, with
// zero Elapsed/Rows.
func (p *Provider) planSpan(ctx context.Context, ex *dmx.Explain) (*obs.Span, error) {
	root := obs.NewSpan("statement", "")
	switch st := ex.Stmt.(type) {
	case nil:
		if sc := lex.NewScanner(ex.Command); sc.Peek().Is("SHAPE") {
			q, err := shape.ParseString(ex.Command)
			if err != nil {
				return nil, err
			}
			root.SetLabel("SHAPE")
			root.Add(q.PlanSpan())
			return root, nil
		}
		root.SetLabel("SQL")
		sql, err := sqlengine.Parse(ex.Command)
		if err != nil {
			return nil, err
		}
		if sel, ok := sql.(*sqlengine.SelectStmt); ok {
			// The engine's plan span resolves real tables, so it carries the
			// cost-based choices (scan estimates, index pushdown, join
			// strategy and fan-out) rather than the shape-only fallback.
			root.Add(p.Engine.PlanSpan(ctx, sel))
		} else {
			root.Add(obs.NewSpan("sql", fmt.Sprintf("%T", sql)))
		}
		return root, nil
	case *dmx.PredictionSelect:
		root.SetLabel("PREDICT")
		root.Add(sourcePlanSpan(st.Source))
		root.Add(relationPlanSpan(st.Select, "predict", "model="+st.Model))
		return root, nil
	case *dmx.RowsetSelect:
		root.SetLabel(statementKind(st))
		root.Add(relationPlanSpan(st.Select, "rowset", st.Name()))
		return root, nil
	case *dmx.InsertInto:
		root.SetLabel("INSERT MODEL")
		root.Add(sourcePlanSpan(st.Source))
		root.Add(obs.NewSpan("bind", ""))
		train := obs.NewSpan("train", "")
		if def, err := p.ModelDef(st.Model); err == nil {
			train.SetLabel("algorithm=" + def.Algorithm)
		}
		train.Add(obs.NewSpan("tokenize", ""))
		root.Add(train)
		return root, nil
	default:
		// Catalogue and metadata statements have no operator pipeline; the
		// plan is the statement itself.
		root.SetLabel(statementKind(st))
		root.Add(obs.NewSpan("dmx", statementKind(st)))
		return root, nil
	}
}

// relationPlanSpan is the SELECT the engine runs over a relation, as it would
// record it: the relation's operator, then the select's own filter, project or
// group-by, and sort.
func relationPlanSpan(sel *sqlengine.SelectStmt, kind, label string) *obs.Span {
	sp := sel.PlanSpan()
	sp.Children = append([]*obs.Span{obs.NewSpan(kind, label)}, sp.Children...)
	return sp
}

// sourcePlanSpan plans the caseset assembly feeding a mining statement.
func sourcePlanSpan(src dmx.Source) *obs.Span {
	sp := obs.NewSpan("caseset", "")
	switch {
	case src.Shape != nil:
		sp.Add(src.Shape.PlanSpan())
	case src.Select != nil:
		sp.Add(src.Select.PlanSpan())
	}
	return sp
}
