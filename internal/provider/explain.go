package provider

import (
	"context"
	"fmt"

	"repro/internal/dmx"
	"repro/internal/obs"
	"repro/internal/rowset"
	"repro/internal/schemarowset"
	"repro/internal/sqlengine"
)

// explain executes EXPLAIN [ANALYZE] of the compiled statement inner. Bare
// EXPLAIN builds the operator plan as a span tree without running the
// statement and renders it with NULL times and row counts. EXPLAIN ANALYZE
// runs the statement, exactly as it runs unprefixed, under the statement's
// trace and renders the measured span tree — per-operator wall time and rows —
// as the result rowset.
func (s *Session) explain(ctx context.Context, ex *dmx.Explain, inner *plan) (*rowset.Rowset, error) {
	if !ex.Analyze {
		return schemarowset.Explain(s.p.planSpan(ctx, inner.stmt), false)
	}
	t := obs.FromContext(ctx)
	if t == nil {
		// Observability is disabled (or the caller bypassed ExecuteContext):
		// ANALYZE still needs a span collector, so run under a local trace
		// that lives only for this statement.
		t = obs.NewTrace(ex.Command, "")
		t.SetClass("EXPLAIN", nil)
		ctx = obs.WithTrace(ctx, t)
	}
	// Per-operator wall time is sampled only under ANALYZE: detailed mode
	// makes streaming operators read the clock around every row, a cost
	// normal traced execution must not pay (spans there count rows only).
	t.SetDetailed(true)
	rs, err := s.execute(ctx, t.StartStage(obs.StageBind), inner, nil)
	if err != nil {
		return nil, err
	}
	return schemarowset.Explain(t.SpanTree(int64(rs.Len())), true)
}

// planSpan builds the plan-only span tree for a statement that has not run:
// the same operator nodes execution would record, in execution order, with
// zero Elapsed/Rows.
func (p *Provider) planSpan(ctx context.Context, st dmx.Statement) *obs.Span {
	root := obs.NewSpan("statement", statementKind(st))
	switch st := st.(type) {
	case *dmx.SQL:
		if sel, ok := st.Stmt.(*sqlengine.SelectStmt); ok {
			// The engine's plan span resolves real tables, so it carries the
			// cost-based choices (scan estimates, index pushdown, join
			// strategy and fan-out) rather than the shape-only fallback.
			root.Add(p.Engine.PlanSpan(ctx, sel))
		} else {
			root.Add(obs.NewSpan("sql", fmt.Sprintf("%T", st.Stmt)))
		}
	case *dmx.Shape:
		root.Add(st.Query.PlanSpan())
	case *dmx.PredictionSelect:
		// A source that streams is planned inside the select, its operators
		// ahead of the predict operator they feed.
		sel := relationPlanSpan(st.Select, "predict", "model="+st.Model)
		if in, _ := p.Engine.PlanInput(ctx, st.Source.Select); in != nil {
			root.Add(obs.NewSpan("caseset", ""))
			sel.Children = append(p.Engine.InputPlanSpans(st.Select, in), sel.Children...)
		} else {
			root.Add(sourcePlanSpan(st.Source))
		}
		root.Add(sel)
	case *dmx.RowsetSelect:
		root.Add(relationPlanSpan(st.Select, "rowset", st.Name()))
	case *dmx.InsertInto:
		root.Add(sourcePlanSpan(st.Source))
		root.Add(obs.NewSpan("bind", ""))
		train := obs.NewSpan("train", "")
		if def, err := p.ModelDef(st.Model); err == nil {
			train.SetLabel("algorithm=" + def.Algorithm)
		}
		train.Add(obs.NewSpan("tokenize", ""))
		train.Add(obs.NewSpan("discretize", ""))
		root.Add(train)
	default:
		// Catalogue and metadata statements have no operator pipeline; the
		// plan is the statement itself.
		root.Add(obs.NewSpan("dmx", statementKind(st)))
	}
	return root
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
