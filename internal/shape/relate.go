package shape

// Index-backed RELATE: when an APPEND child is a bare single-table SELECT,
// the shaping service does not run the child query at all. It auto-creates a
// hash index on the relate column and answers each parent key with one
// O(bucket) lookup, projecting only the bucket rows — child rows that no
// parent references are never touched, nothing is sorted, and nothing is
// materialized beyond the buckets themselves.
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
// Key matching is rowset.Key on both sides, the same function the grouped
// fallback uses, so match semantics are identical for every column type.

import (
	"fmt"
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
	ords   []int          // table ordinal per projected output column
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
		ords:   ords,
		schema: schema,
		label:  alias,
		sorted: sorted,
	}
}

// identity reports whether the projection passes table rows through unshaped.
func (p *relatePlan) identity() bool {
	if len(p.ords) != p.tbl.Schema().Len() {
		return false
	}
	for i, o := range p.ords {
		if o != i {
			return false
		}
	}
	return true
}

// project shapes bucket rows into the child's output columns. Identity
// projections share the table rows directly (the engine never mutates stored
// rows).
func (p *relatePlan) project(rows []rowset.Row) []rowset.Row {
	if p.identity() {
		return rows
	}
	out := make([]rowset.Row, len(rows))
	for i, r := range rows {
		pr := make(rowset.Row, len(p.ords))
		for j, o := range p.ords {
			pr[j] = r[o]
		}
		out[i] = pr
	}
	return out
}

// run answers one APPEND from the index: one bucket lookup per distinct
// parent key. It records the same span tree executing the child would —
// shape(select(scan, project[, sort])) — so EXPLAIN output and the
// plan-mirror invariant are unchanged; row counts reflect the bucket rows
// actually fetched.
func (p *relatePlan) run(t *obs.Trace, parent *rowset.Rowset, ap Append) (childGroup, int64, error) {
	var g childGroup
	parentOrd, ok := parent.Schema().Lookup(ap.ParentCol)
	if !ok {
		return g, 0, fmt.Errorf("shape: RELATE parent column %q not in parent query output %v",
			ap.ParentCol, parent.Schema().Names())
	}
	if !p.tbl.HasIndex(p.keyCol) {
		if err := p.tbl.CreateIndex(p.keyCol); err != nil {
			return g, 0, err
		}
	}

	spShape := t.StartSpan("shape", "")
	spSel := t.StartSpan("select", "")
	spScan := t.StartSpan("scan", p.label+" index="+p.keyCol)
	t.EndSpan(spScan)
	spProj := t.StartSpan("project", "")
	t.EndSpan(spProj)
	var spSort *obs.Span
	if p.sorted {
		spSort = t.StartSpan("sort", "")
		t.EndSpan(spSort)
	}

	byKey := make(map[string]*rowset.Rowset)
	var total int64
	var keyBuf []byte
	var lookupErr error
	for _, pr := range parent.Rows() {
		v := pr[parentOrd]
		keyBuf = rowset.AppendKey(keyBuf[:0], v)
		if _, done := byKey[string(keyBuf)]; done {
			continue
		}
		rows, err := p.tbl.LookupEqualRows(p.keyCol, v)
		if err != nil {
			lookupErr = err
			break
		}
		total += int64(len(rows))
		byKey[string(keyBuf)] = rowset.Adopt(p.schema, p.project(rows))
	}

	spScan.SetRows(total)
	spProj.SetRows(total)
	spSort.SetRows(total)
	spSel.SetRows(total)
	t.EndSpan(spSel)
	spShape.SetRows(total)
	t.EndSpan(spShape)
	if lookupErr != nil {
		return g, 0, lookupErr
	}
	return childGroup{byKey: byKey, schema: p.schema}, total, nil
}
