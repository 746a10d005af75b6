package sqlengine

import (
	"context"
	"fmt"

	"repro/internal/lex"
	"repro/internal/obs"
	"repro/internal/rowset"
	"repro/internal/storage"
)

// Related reads sel as a SHAPE APPEND child related on its output column col:
// group i of the result holds the child rows whose col equals keys[i], in the
// order the child query yields them, and the schema is the child's output. A
// NULL key matches nothing, as in the engine's equi-join: every path groups
// through a storage.KeyIndex, the table's own or one built over the rows read.
// The child is read the cheapest way that yields the groups executing it
// would:
//
//   - An ORDER BY that is exactly col, ascending — an unqualified reference
//     by that name — is dropped, unless a TOP picks rows by it: the rows of
//     one group share their key, so the stable sort would leave each group in
//     scan order, which is what grouping keeps.
//   - A child PlanInput accepts is not projected: the groups' Base is the
//     rows its FROM clause yields, stored rows shared, and Cols maps the
//     child's columns onto them. One bare stored scan with nothing to filter
//     declares col indexed and probes the table's cached key index
//     (storage.Table.Groups), so rows no key matches are never touched; any
//     other such child — a WHERE, a pushed probe, a view, a join — runs as
//     SELECT * over its FROM clause and WHERE, whose identity projection
//     passes those rows through, and they are grouped (storage.GroupRows).
//   - Any other child — a computed item, GROUP BY, DISTINCT, TOP, another
//     ORDER BY — runs through QueryContext, and its output is grouped
//     (RelatedRows).
//
// The spans are the child's "select" and its operators, as RelatedPlanSpan
// plans them. The "select" span counts the child rows read: every row the
// child yields, but on the index path only the rows a key matched, the only
// ones the probe reads.
func (e *Engine) Related(ctx context.Context, sel *SelectStmt, col string, keys []rowset.Value) (*rowset.Schema, rowset.Groups, error) {
	sel = sel.relateOrder(col)
	in, err := e.PlanInput(ctx, sel)
	if err != nil {
		return nil, rowset.Groups{}, err
	}
	if in == nil {
		rs, err := e.QueryContext(ctx, sel)
		if err != nil {
			return nil, rowset.Groups{}, err
		}
		g, err := RelatedRows(ctx, rs, col, keys)
		return rs.Schema(), g, err
	}
	key, err := relateColumn(in.Schema, col)
	if err != nil {
		return nil, rowset.Groups{}, err
	}
	ord, typ := in.proj.ords[key], in.Schema.Column(key).Type
	t := obs.FromContext(ctx)
	spSel := t.StartSpan("select", "")
	defer t.EndSpan(spSel)
	src := &source{n: 1}
	defer src.flushSpans()
	var g rowset.Groups
	if first := in.fc.scans[0]; len(in.fc.scans) == 1 && first.bare() && in.fc.residual == nil {
		name := first.tbl.Schema().Column(ord).Name
		spScan := src.span(t, "scan", obs.Label{Text: first.ref.AliasOrName(), Index: name}, 1)
		spProj := src.span(t, "project", obs.Label{}, 1)
		if !first.tbl.HasIndex(name) {
			err = first.tbl.CreateIndex(name)
		}
		if err == nil {
			g, err = first.tbl.Groups(ctx, name, keys)
		}
		spScan.tally(0, int64(len(g.Pos)), 0, 0)
		spProj.tally(0, int64(len(g.Pos)), 0, 0)
		spSel.SetRows(int64(len(g.Pos)))
	} else if err = e.planFrom(ctx, t, src, in.sel, &in.fc, storage.DefaultMorselSize); err == nil {
		src.residual, src.filter = e.planFilter(t, src, in.sel.Where, in.fc.residual)
		star := *in.sel
		star.Items = []SelectItem{{Star: true}}
		var rs *rowset.Rowset
		if rs, err = e.project(ctx, t, &star, src); err == nil {
			spSel.SetRows(int64(rs.Len()))
			g, err = storage.GroupRows(ctx, rs.Rows(), ord, typ, keys)
		}
	}
	if err != nil {
		return nil, rowset.Groups{}, err
	}
	g.Cols = in.proj.ords
	return in.Schema, g, nil
}

// RelatedRows groups the rows of rs, a child query's output, by its column
// col, as Related does.
func RelatedRows(ctx context.Context, rs *rowset.Rowset, col string, keys []rowset.Value) (rowset.Groups, error) {
	ord, err := relateColumn(rs.Schema(), col)
	if err != nil {
		return rowset.Groups{}, err
	}
	return storage.GroupRows(ctx, rs.Rows(), ord, rs.Schema().Column(ord).Type, keys)
}

// relateColumn returns the ordinal of the relate column col in a child's
// output schema.
func relateColumn(schema *rowset.Schema, col string) (int, error) {
	if ord, ok := schema.Lookup(col); ok {
		return ord, nil
	}
	return 0, fmt.Errorf("sqlengine: RELATE child column %q not in child query output %v", col, schema.Names())
}

// RelatedPlanSpan is the plan of sel read as an APPEND child related on col:
// the operators Related records, which are sel's own less the ORDER BY
// Related drops.
func (sel *SelectStmt) RelatedPlanSpan(col string) *obs.Span {
	return sel.relateOrder(col).PlanSpan()
}

// relateOrder returns sel without its ORDER BY when that is a no-op for
// grouping on col (see Related), and sel itself otherwise.
func (sel *SelectStmt) relateOrder(col string) *SelectStmt {
	if len(sel.OrderBy) != 1 || sel.OrderBy[0].Desc || sel.Top != nil {
		return sel
	}
	if cr, ok := sel.OrderBy[0].Expr.(*ColumnRef); !ok || cr.Qualifier != "" || !lex.FoldEqual(cr.Name, col) {
		return sel
	}
	s := *sel
	s.OrderBy = nil
	return &s
}
