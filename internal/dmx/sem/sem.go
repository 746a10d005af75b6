// Package sem implements the semantic binder that sits between the DMX
// parser and the provider's executor. It resolves column references against
// model metadata and (best-effort) source schemas, checks scalar-vs-TABLE
// usage, prediction-function arity and argument shape, and PREDICTION JOIN
// ON-clause type compatibility — reporting every violation as a positioned
// diagnostic ("line:col: message") before any execution work starts.
//
// The binder is deliberately conservative: whenever a fact cannot be
// established statically (an opaque source schema, an expression-valued
// item), the corresponding check is skipped rather than guessed. A statement
// sem accepts may still fail at execution time; a statement sem rejects would
// always have failed.
package sem

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dmx"
	"repro/internal/lex"
	"repro/internal/rowset"
	"repro/internal/sqlengine"
)

// Catalog is the metadata surface the binder resolves names against. The
// provider implements it; tests use lightweight fakes. Lookup misses are
// reported as *core.NotFoundError so callers can classify them; the binder
// itself only cares whether the lookup succeeded.
type Catalog interface {
	// ModelDef returns the definition of a catalogued mining model, or a
	// *core.NotFoundError when no such model exists.
	ModelDef(name string) (*core.ModelDef, error)
	// TableSchema returns the schema of a relational table, or a
	// *core.NotFoundError when it is unknown.
	TableSchema(name string) (*rowset.Schema, error)
}

// Diagnostic is one positioned semantic error.
type Diagnostic struct {
	Pos lex.Pos
	Msg string
}

func (d Diagnostic) Error() string {
	if d.Pos.IsValid() {
		return fmt.Sprintf("%s: %s", d.Pos, d.Msg)
	}
	return d.Msg
}

// Diagnostics is an ordered list of semantic errors; it implements error so
// callers can return the whole batch at once.
type Diagnostics []Diagnostic

func (ds Diagnostics) Error() string {
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = d.Error()
	}
	return strings.Join(parts, "\n")
}

// Check binds st against cat and returns nil if the statement is
// semantically well-formed, or a Diagnostics value listing every violation
// found (in source order).
func Check(st dmx.Statement, cat Catalog) error {
	// EXPLAIN is checked as the statement it wraps: a plan for a statement
	// that would not bind is not worth rendering.
	if ex, ok := st.(*dmx.Explain); ok {
		return Check(ex.Stmt, cat)
	}
	c := &checker{cat: cat}
	switch s := st.(type) {
	case *dmx.InsertInto:
		c.checkInsert(s)
	case *dmx.PredictionSelect:
		c.checkPrediction(s)
	}
	if len(c.diags) == 0 {
		return nil
	}
	return c.diags
}

type checker struct {
	cat   Catalog
	diags Diagnostics
}

func (c *checker) errorf(pos lex.Pos, format string, args ...any) {
	c.diags = append(c.diags, Diagnostic{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// ---- INSERT INTO ----

func (c *checker) checkInsert(ins *dmx.InsertInto) {
	def, err := c.cat.ModelDef(ins.Model)
	if err != nil {
		c.errorf(ins.ModelPos, "unknown mining model %q", ins.Model)
		return
	}
	srcSchema := c.sourceSchema(ins.Source)
	// With an explicit binding list that covers every source column, bindings
	// map positionally and SKIP entries are legal; otherwise columns bind by
	// name. When the source schema cannot be inferred the positional question
	// is open, so SKIP and source-name checks are skipped.
	positional := srcSchema != nil && len(ins.Bindings) == len(srcSchema.Columns)
	for _, b := range ins.Bindings {
		c.checkBinding(def.Name, def.Columns, b, srcSchema, positional)
	}
}

func (c *checker) checkBinding(model string, cols []core.ColumnDef, b dmx.Binding, src *rowset.Schema, positional bool) {
	if b.Skip {
		if src != nil && !positional {
			c.errorf(b.Pos, "SKIP requires the binding list to match the source column count")
		}
		return
	}
	mc, ok := findColumn(cols, b.Name)
	if !ok {
		c.errorf(b.Pos, "unknown column %q in model %s", b.Name, model)
		return
	}
	if len(b.Nested) > 0 && mc.Content != core.ContentTable {
		c.errorf(b.Pos, "column %q of model %s is not a TABLE column; it cannot take a nested binding list", b.Name, model)
		return
	}
	if !positional && src != nil {
		if _, ok := src.Lookup(b.Name); !ok {
			c.errorf(b.Pos, "source has no column %q (source columns: %v)", b.Name, src.Names())
		}
	}
	if mc.Content == core.ContentTable {
		for _, nb := range b.Nested {
			// Nested bindings always bind by name against the nested source
			// table, whose schema is not inferred here.
			c.checkBinding(model, mc.Table, nb, nil, false)
		}
	}
}

// ---- PREDICTION JOIN ----

// predCtx carries the resolution context for one PredictionSelect.
type predCtx struct {
	def   *core.ModelDef
	model string
	// eval is the alias-qualified source schema the executor evaluates
	// against; nil when the source schema cannot be inferred.
	eval *rowset.Schema
}

func (c *checker) checkPrediction(ps *dmx.PredictionSelect) {
	def, err := c.cat.ModelDef(ps.Model)
	if err != nil {
		c.errorf(ps.ModelPos, "unknown mining model %q", ps.Model)
		return
	}
	src := c.sourceSchema(ps.Source)
	pc := &predCtx{def: def, model: ps.Model, eval: qualifySchema(src, ps.Alias)}

	sel := ps.Select
	for _, it := range sel.Items {
		if it.Star {
			continue
		}
		c.walkExpr(it.Expr, pc)
	}
	if !ps.Natural && ps.On != nil {
		ps.OnBindings(def, src, c.errorf)
	}
	if sel.Where != nil {
		c.walkExpr(sel.Where, pc)
	}
	if len(sel.GroupBy) > 0 {
		c.errorf(dmx.ExprPos(sel.GroupBy[0]), "GROUP BY is not supported on a PREDICTION JOIN")
	}
	if sel.Having != nil {
		c.errorf(dmx.ExprPos(sel.Having), "HAVING is not supported on a PREDICTION JOIN")
	}
	for _, o := range sel.OrderBy {
		if cr, ok := o.Expr.(*sqlengine.ColumnRef); ok && cr.Qualifier == "" && namesItem(sel.Items, cr.Name) {
			continue
		}
		c.walkExpr(o.Expr, pc)
	}
}

// namesItem reports whether name is one of the statement's output columns —
// an item's alias, or the column an un-aliased reference names — which is what
// an unqualified ORDER BY reference resolves to first, ahead of the source and
// the model, exactly as in the SQL engine that sorts the result.
func namesItem(items []sqlengine.SelectItem, name string) bool {
	for _, it := range items {
		out := it.Alias
		if cr, ok := it.Expr.(*sqlengine.ColumnRef); ok && out == "" {
			out = cr.Name
		}
		if out != "" && strings.EqualFold(out, name) {
			return true
		}
	}
	return false
}

// qualifySchema mirrors the executor's alias qualification of the source
// schema (predictionSelect): with an alias, every column is visible as
// "alias.Name".
func qualifySchema(src *rowset.Schema, alias string) *rowset.Schema {
	if src == nil || alias == "" {
		return src
	}
	cols := make([]rowset.Column, src.Len())
	for i, col := range src.Columns {
		cols[i] = rowset.Column{Name: alias + "." + col.Name, Type: col.Type, Nested: col.Nested}
	}
	q, err := rowset.NewSchema(cols...)
	if err != nil {
		return nil
	}
	return q
}

// walkExpr visits an expression in prediction-item position, checking column
// references and prediction-function calls. Placeholders carry no name to
// resolve (the provider type-checks them at prepare time), and a subquery
// resolves against the relational engine, not this scope.
func (c *checker) walkExpr(e sqlengine.Expr, pc *predCtx) {
	sqlengine.Inspect(e, func(n sqlengine.Expr) bool {
		switch x := n.(type) {
		case *sqlengine.ColumnRef:
			c.resolveRef(x, pc)
		case *sqlengine.FuncCall:
			if dmx.IsPredictionFunc(x.Name) {
				c.checkPredFunc(x, pc)
				return false
			}
			if sqlengine.IsAggregate(x) {
				c.errorf(x.Pos, "aggregate %s is not supported on a PREDICTION JOIN", x.Name)
				return false
			}
		case *sqlengine.Subquery, *sqlengine.Exists:
			return false
		}
		return true
	})
}

// resolveRef checks one column reference the executor would evaluate: first
// against the (alias-qualified) source schema, then against the model via the
// prediction-join External hook ([Model].[Col], or a bare reference to an
// output column).
func (c *checker) resolveRef(cr *sqlengine.ColumnRef, pc *predCtx) {
	if pc.eval != nil {
		if _, err := sqlengine.ResolveColumn(pc.eval, cr.Qualifier, cr.Name); err == nil {
			return
		}
	}
	if strings.EqualFold(cr.Qualifier, pc.model) {
		if _, ok := pc.def.Column(cr.Name); !ok {
			c.errorf(cr.Pos, "unknown column %q in model %s", cr.Name, pc.def.Name)
		}
		return
	}
	if cr.Qualifier == "" {
		if mc, ok := pc.def.Column(cr.Name); ok && mc.IsOutput() {
			return
		}
	}
	if pc.eval == nil {
		return // source schema unknown; cannot decide
	}
	c.errorf(cr.Pos, "unknown column %q (not in the prediction source or among model %s outputs)",
		cr.Full(), pc.def.Name)
}

// funcSig describes one prediction function's accepted shape.
type funcSig struct {
	min, max int
	// colArg: the first argument must be a model column reference.
	colArg bool
	// scalarOnly: that column must not be a TABLE column.
	scalarOnly bool
}

var predFuncSigs = map[string]funcSig{
	dmx.FuncPredict:            {min: 1, max: 2, colArg: true},
	dmx.FuncPredictAssociation: {min: 1, max: 2, colArg: true},
	dmx.FuncPredictProbability: {min: 1, max: 2, colArg: true, scalarOnly: true},
	dmx.FuncPredictSupport:     {min: 1, max: 1, colArg: true, scalarOnly: true},
	dmx.FuncPredictStdev:       {min: 1, max: 1, colArg: true, scalarOnly: true},
	dmx.FuncPredictVariance:    {min: 1, max: 1, colArg: true, scalarOnly: true},
	dmx.FuncPredictHistogram:   {min: 1, max: 1, colArg: true},
	dmx.FuncTopCount:           {min: 3, max: 3},
	dmx.FuncCluster:            {min: 0, max: 0},
	dmx.FuncClusterProbability: {min: 0, max: 0},
	dmx.FuncRangeMid:           {min: 1, max: 1, colArg: true, scalarOnly: true},
	dmx.FuncRangeMin:           {min: 1, max: 1, colArg: true, scalarOnly: true},
	dmx.FuncRangeMax:           {min: 1, max: 1, colArg: true, scalarOnly: true},
}

func (c *checker) checkPredFunc(f *sqlengine.FuncCall, pc *predCtx) {
	sig, ok := predFuncSigs[f.Name]
	if !ok {
		return
	}
	if len(f.Args) < sig.min || len(f.Args) > sig.max {
		c.errorf(f.Pos, "%s takes %s, got %d", f.Name, argCountText(sig.min, sig.max), len(f.Args))
		return
	}
	if f.Name == dmx.FuncTopCount {
		// TopCount(<table expr>, <rank column of that table>, <n>): the rank
		// column belongs to the (runtime) nested table, so only its shape is
		// checked; the table expression and count are walked normally.
		c.walkExpr(f.Args[0], pc)
		if _, ok := f.Args[1].(*sqlengine.ColumnRef); !ok {
			c.errorf(f.Pos, "%s: second argument must be a column of the table argument", f.Name)
		}
		c.walkExpr(f.Args[2], pc)
		return
	}
	if !sig.colArg {
		return
	}
	cr, ok := f.Args[0].(*sqlengine.ColumnRef)
	if !ok {
		c.errorf(f.Pos, "%s: first argument must be a model column reference", f.Name)
		return
	}
	mc, ok := pc.def.Column(cr.Name)
	if !ok {
		c.errorf(refPos(cr, f.Pos), "unknown column %q in model %s", cr.Name, pc.def.Name)
		return
	}
	if mc.Content == core.ContentTable && sig.scalarOnly {
		c.errorf(refPos(cr, f.Pos), "%s: column %q of model %s is a TABLE column; a scalar column is required",
			f.Name, mc.Name, pc.def.Name)
		return
	}
	if mc.Content != core.ContentTable && len(f.Args) > 1 &&
		(f.Name == dmx.FuncPredict || f.Name == dmx.FuncPredictAssociation) {
		c.errorf(f.Pos, "%s: the row-limit argument applies only to TABLE columns, and %q is scalar",
			f.Name, mc.Name)
		return
	}
	for _, a := range f.Args[1:] {
		c.walkExpr(a, pc)
	}
}

func argCountText(min, max int) string {
	switch {
	case min == max && min == 1:
		return "1 argument"
	case min == max:
		return fmt.Sprintf("%d arguments", min)
	default:
		return fmt.Sprintf("%d to %d arguments", min, max)
	}
}

// ---- source schema inference ----

// sourceSchema infers the output schema of an INSERT INTO / PREDICTION JOIN
// data source, best-effort. It handles plain SELECT statements whose items
// are stars or column references over tables the catalog knows; anything
// else (SHAPE sources, expressions without aliases, unknown tables) yields
// nil, which downstream checks treat as "unknown — skip".
func (c *checker) sourceSchema(src dmx.Source) *rowset.Schema {
	if src.Select == nil {
		return nil
	}
	return c.inferSelect(src.Select)
}

func (c *checker) inferSelect(sel *sqlengine.SelectStmt) *rowset.Schema {
	if len(sel.From) == 0 || len(sel.GroupBy) > 0 {
		return nil
	}
	type fromTable struct {
		name   string
		schema *rowset.Schema
	}
	froms := make([]fromTable, 0, len(sel.From))
	for _, tr := range sel.From {
		ts, err := c.cat.TableSchema(tr.Name)
		if err != nil {
			return nil
		}
		froms = append(froms, fromTable{name: tr.AliasOrName(), schema: ts})
	}
	resolve := func(qualifier, name string) (rowset.Column, bool) {
		for _, ft := range froms {
			if qualifier != "" && !strings.EqualFold(qualifier, ft.name) {
				continue
			}
			if ord, ok := ft.schema.Lookup(name); ok {
				return ft.schema.Column(ord), true
			}
		}
		return rowset.Column{}, false
	}
	var cols []rowset.Column
	for _, it := range sel.Items {
		switch {
		case it.Star:
			for _, ft := range froms {
				if it.Qualifier != "" && !strings.EqualFold(it.Qualifier, ft.name) {
					continue
				}
				cols = append(cols, ft.schema.Columns...)
			}
		default:
			cr, ok := it.Expr.(*sqlengine.ColumnRef)
			if !ok {
				if it.Alias == "" {
					return nil
				}
				// Expression item: the name is knowable, the type is not.
				cols = append(cols, rowset.Column{Name: it.Alias, Type: rowset.TypeNull})
				continue
			}
			col, ok := resolve(cr.Qualifier, cr.Name)
			if !ok {
				return nil
			}
			if it.Alias != "" {
				col.Name = it.Alias
			} else {
				col.Name = cr.Name
			}
			cols = append(cols, col)
		}
	}
	schema, err := rowset.NewSchema(cols...)
	if err != nil {
		return nil
	}
	return schema
}

// ---- helpers ----

func findColumn(cols []core.ColumnDef, name string) (*core.ColumnDef, bool) {
	for i := range cols {
		if strings.EqualFold(cols[i].Name, name) {
			return &cols[i], true
		}
	}
	return nil, false
}

// refPos prefers the reference's own position, falling back to fb.
func refPos(cr *sqlengine.ColumnRef, fb lex.Pos) lex.Pos {
	if cr.Pos.IsValid() {
		return cr.Pos
	}
	return fb
}
