package shape

// Index-backed RELATE: when an APPEND child is a bare single-table SELECT,
// the shaping service does not run the child query at all. It declares the
// relate column indexed and answers each parent key with one O(bucket) lookup
// of its key index, all against one snapshot (storage.Table.Groups) — child
// rows that no parent references are never touched, nothing is sorted, and
// nothing is copied: the caseset keeps positions into the table's snapshot
// and the child's projection as a column map, which the case binder composes
// into its own ordinals and Caseset.Rowset applies only when it renders.
//
// Eligibility is strict because the fast path must be row- and order-
// identical to executing the child query:
//
//   - bare child (no nested SHAPE), one FROM table (not a view), no WHERE /
//     GROUP BY / HAVING / DISTINCT / TOP;
//   - every item a plain column reference with pairwise-distinct output names
//     (duplicates would be renamed by the SQL engine's outputNames);
//   - the relate column among the projected outputs;
//   - ORDER BY absent, or exactly the relate column ascending — within one
//     bucket all relate keys are equal, so the stable sort the engine would
//     run leaves bucket rows in insertion order, which is exactly what the
//     index lookup yields.
//
// Key matching is the storage key index on both paths — the table's own
// here, a transient one over the child query's output otherwise — so match
// semantics, NULL keys matching nothing included, are identical for every
// column type.

import (
	"context"
	"strings"

	"repro/internal/obs"
	"repro/internal/rowset"
	"repro/internal/sqlengine"
	"repro/internal/storage"
)

// relatePlan is a compiled index-backed APPEND child.
type relatePlan struct {
	tbl    *storage.Table
	keyCol string         // table column the index is built on
	cols   []int          // table ordinal per output column
	schema *rowset.Schema // child output schema (names as written, declared types)
	label  string         // scan span label (table alias or name)
	sorted bool           // child had the eligible ORDER BY form: emit a sort span
}

// compileRelatePlan returns the index-backed plan for ap, or nil when the
// child must run through the SQL engine. A nil return is never an error:
// anything surprising (unknown columns, duplicate names) falls back so the
// engine can apply its own semantics and produce its own diagnostics.
func compileRelatePlan(e *sqlengine.Engine, ap Append) *relatePlan {
	if len(ap.Child.Appends) != 0 {
		return nil
	}
	sel := ap.Child.Root
	if len(sel.From) != 1 || sel.Where != nil || len(sel.GroupBy) != 0 ||
		sel.Having != nil || sel.Distinct || sel.Top != nil || len(sel.Items) == 0 {
		return nil
	}
	ref := sel.From[0]
	tbl, ok := e.TableSource(ref.Name)
	if !ok {
		return nil
	}
	alias := ref.AliasOrName()
	resolve := func(cr *sqlengine.ColumnRef) (int, bool) {
		if cr.Qualifier != "" && !strings.EqualFold(cr.Qualifier, alias) {
			return 0, false
		}
		return tbl.Schema().Lookup(cr.Name)
	}

	ords := make([]int, len(sel.Items))
	names := make([]string, len(sel.Items))
	seen := make(map[string]bool, len(sel.Items))
	for i, it := range sel.Items {
		if it.Star {
			return nil
		}
		cr, ok := it.Expr.(*sqlengine.ColumnRef)
		if !ok {
			return nil
		}
		ord, ok := resolve(cr)
		if !ok {
			return nil
		}
		ords[i] = ord
		n := it.Alias
		if n == "" {
			n = cr.Name
		}
		low := strings.ToLower(n)
		if seen[low] {
			return nil
		}
		seen[low] = true
		names[i] = n
	}

	keyItem := -1
	for i, n := range names {
		if strings.EqualFold(n, ap.ChildCol) {
			keyItem = i
			break
		}
	}
	if keyItem < 0 {
		return nil
	}

	sorted := false
	if len(sel.OrderBy) > 0 {
		if len(sel.OrderBy) != 1 || sel.OrderBy[0].Desc {
			return nil
		}
		cr, ok := sel.OrderBy[0].Expr.(*sqlengine.ColumnRef)
		if !ok {
			return nil
		}
		// Alias resolution first, then source columns — the engine's ORDER BY
		// lookup order. Either way the key must be the relate column.
		matched := false
		if cr.Qualifier == "" {
			for i, n := range names {
				if strings.EqualFold(n, cr.Name) {
					if ords[i] != ords[keyItem] {
						return nil
					}
					matched = true
					break
				}
			}
		}
		if !matched {
			ord, ok := resolve(cr)
			if !ok || ord != ords[keyItem] {
				return nil
			}
		}
		sorted = true
	}

	cols := make([]rowset.Column, len(ords))
	for i, ord := range ords {
		c := tbl.Schema().Column(ord)
		cols[i] = rowset.Column{Name: names[i], Type: c.Type, Nested: c.Nested}
	}
	schema, err := rowset.NewSchema(cols...)
	if err != nil {
		return nil
	}
	return &relatePlan{
		tbl:    tbl,
		keyCol: tbl.Schema().Column(ords[keyItem]).Name,
		cols:   ords,
		schema: schema,
		label:  alias,
		sorted: sorted,
	}
}

// run answers one APPEND from the index: one bucket lookup per parent key. It
// records the same span tree executing the child would —
// shape(select(scan, project[, sort])) — so EXPLAIN output and the
// plan-mirror invariant are unchanged; row counts reflect the bucket rows
// handed to the caseset.
func (p *relatePlan) run(ctx context.Context, t *obs.Trace, keys []rowset.Value) (rowset.Groups, int64, error) {
	if !p.tbl.HasIndex(p.keyCol) {
		if err := p.tbl.CreateIndex(p.keyCol); err != nil {
			return rowset.Groups{}, 0, err
		}
	}

	spShape := t.StartSpan("shape", "")
	spSel := t.StartSpan("select", "")
	spScan := t.AddSpan("scan", obs.Label{Text: p.label, Index: p.keyCol})
	spProj := t.AddSpan("project", obs.Label{})
	var spSort obs.SpanRef
	if p.sorted {
		spSort = t.AddSpan("sort", obs.Label{})
	}

	g, err := p.tbl.Groups(ctx, p.keyCol, keys)
	g.Cols = p.cols
	total := int64(len(g.Pos))

	spScan.SetRows(total)
	spProj.SetRows(total)
	spSort.SetRows(total)
	spSel.SetRows(total)
	t.EndSpan(spSel)
	spShape.SetRows(total)
	t.EndSpan(spShape)
	return g, total, err
}
