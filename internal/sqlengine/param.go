package sqlengine

// Parameter placeholders for prepared statements: '?' (positional) and
// '@name' (named). Placeholders parse into Param nodes; AssignParams gives
// every node a slot ordinal at prepare time (named parameters share the slot
// of their first occurrence), InferParamTypes fills in best-effort types from
// the columns each placeholder is compared against, and BindStatement clones
// the statement with Literal values substituted — so a cached plan is never
// mutated and can be shared across concurrent executions.

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/lex"
	"repro/internal/rowset"
)

// Param is a parameter placeholder: '?' or '@name'.
type Param struct {
	// Ordinal is the 0-based argument slot, assigned by AssignParams
	// (-1 until then). Named parameters repeated in one statement share it.
	Ordinal int
	// Name is the placeholder's name without the '@'; empty for '?'.
	Name string
	// TokPos is the byte offset of the placeholder token, used to order
	// slots by source position.
	TokPos int
	// Pos locates the placeholder for diagnostics.
	Pos lex.Pos
}

func (*Param) expr() {}

func (p *Param) String() string {
	if p.Name != "" {
		return "@" + p.Name
	}
	return "?"
}

// ParamSlot describes one argument slot of a prepared statement.
type ParamSlot struct {
	// Name is the slot's parameter name (without '@'); empty for positional.
	Name string
	// Type is the inferred value type; TypeNull means unknown (arguments are
	// passed through un-coerced).
	Type rowset.Type
}

// Label renders the slot for error messages ("@name" or "3" for the 1-based
// position).
func (s ParamSlot) Label(i int) string {
	if s.Name != "" {
		return "@" + s.Name
	}
	return fmt.Sprintf("%d", i+1)
}

// ---------- collection ----------

// walkExprTree visits every node of an expression preorder, descending into
// subquery statements as well.
func walkExprTree(e Expr, f func(Expr)) {
	if e == nil {
		return
	}
	f(e)
	switch x := e.(type) {
	case *Binary:
		walkExprTree(x.L, f)
		walkExprTree(x.R, f)
	case *Unary:
		walkExprTree(x.X, f)
	case *IsNull:
		walkExprTree(x.X, f)
	case *Between:
		walkExprTree(x.X, f)
		walkExprTree(x.Lo, f)
		walkExprTree(x.Hi, f)
	case *In:
		walkExprTree(x.X, f)
		for _, it := range x.List {
			walkExprTree(it, f)
		}
		if x.Subquery != nil {
			walkStatementExprs(x.Subquery, f)
		}
	case *FuncCall:
		for _, a := range x.Args {
			walkExprTree(a, f)
		}
	case *Subquery:
		walkStatementExprs(x.Query, f)
	case *Exists:
		walkStatementExprs(x.Query, f)
	}
}

// walkStatementExprs visits every expression tree of a statement.
func walkStatementExprs(st Statement, f func(Expr)) {
	switch s := st.(type) {
	case *SelectStmt:
		for _, it := range s.Items {
			if !it.Star {
				walkExprTree(it.Expr, f)
			}
		}
		for _, ref := range s.From {
			walkExprTree(ref.On, f)
		}
		walkExprTree(s.Where, f)
		for _, g := range s.GroupBy {
			walkExprTree(g, f)
		}
		walkExprTree(s.Having, f)
		for _, o := range s.OrderBy {
			walkExprTree(o.Expr, f)
		}
	case *InsertStmt:
		for _, row := range s.Rows {
			for _, e := range row {
				walkExprTree(e, f)
			}
		}
		if s.Query != nil {
			walkStatementExprs(s.Query, f)
		}
	case *DeleteStmt:
		walkExprTree(s.Where, f)
	case *UpdateStmt:
		for _, sc := range s.Set {
			walkExprTree(sc.Value, f)
		}
		walkExprTree(s.Where, f)
	}
}

// CollectParams returns every Param node in the statement, ordered by source
// position.
func CollectParams(st Statement) []*Param {
	var ps []*Param
	walkStatementExprs(st, func(e Expr) {
		if p, ok := e.(*Param); ok {
			ps = append(ps, p)
		}
	})
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].TokPos < ps[j].TokPos })
	return ps
}

// WalkExprParams visits every Param under the given expression roots in
// source order (the DMX layer's counterpart of CollectParams).
func WalkExprParams(roots []Expr, f func(*Param)) {
	var ps []*Param
	for _, r := range roots {
		walkExprTree(r, func(e Expr) {
			if p, ok := e.(*Param); ok {
				ps = append(ps, p)
			}
		})
	}
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].TokPos < ps[j].TokPos })
	for _, p := range ps {
		f(p)
	}
}

// AssignOrdinals gives each collected Param its argument slot: positional
// placeholders get consecutive slots in source order; named placeholders get
// one slot per distinct (case-insensitive) name, at its first occurrence.
// Mixing the two styles in one statement is rejected — the argument order
// would be ambiguous.
func AssignOrdinals(ps []*Param) ([]ParamSlot, error) {
	if len(ps) == 0 {
		return nil, nil
	}
	named, positional := 0, 0
	for _, p := range ps {
		if p.Name != "" {
			named++
		} else {
			positional++
		}
	}
	if named > 0 && positional > 0 {
		return nil, fmt.Errorf("sqlengine: cannot mix '?' and '@name' parameters in one statement")
	}
	var slots []ParamSlot
	byName := make(map[string]int)
	for _, p := range ps {
		if p.Name == "" {
			p.Ordinal = len(slots)
			slots = append(slots, ParamSlot{})
			continue
		}
		key := strings.ToLower(p.Name)
		ord, ok := byName[key]
		if !ok {
			ord = len(slots)
			byName[key] = ord
			slots = append(slots, ParamSlot{Name: p.Name})
		}
		p.Ordinal = ord
	}
	return slots, nil
}

// AssignParams collects and assigns the statement's parameters in one step.
func AssignParams(st Statement) ([]ParamSlot, error) {
	return AssignOrdinals(CollectParams(st))
}

// ---------- type inference ----------

// InferParamTypes fills slot types from the columns parameters are compared
// against: `col = ?`, `col BETWEEN ? AND ?`, `col IN (?, ...)`, `col LIKE ?`
// (TEXT). resolve maps a column reference to its declared type; inference is
// best-effort and leaves a slot at TypeNull when nothing can be established.
// Conflicting evidence keeps the first inference (arguments still coerce or
// fail at execution).
func InferParamTypes(st Statement, slots []ParamSlot, resolve func(*ColumnRef) (rowset.Type, bool)) {
	if len(slots) == 0 || resolve == nil {
		return
	}
	note := func(p Expr, typ rowset.Type) {
		pp, ok := p.(*Param)
		if !ok || pp.Ordinal < 0 || pp.Ordinal >= len(slots) {
			return
		}
		if slots[pp.Ordinal].Type == rowset.TypeNull {
			slots[pp.Ordinal].Type = typ
		}
	}
	colType := func(e Expr) (rowset.Type, bool) {
		cr, ok := e.(*ColumnRef)
		if !ok {
			return rowset.TypeNull, false
		}
		return resolve(cr)
	}
	walkStatementExprs(st, func(e Expr) {
		switch x := e.(type) {
		case *Binary:
			switch x.Op {
			case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
				if t, ok := colType(x.L); ok {
					note(x.R, t)
				}
				if t, ok := colType(x.R); ok {
					note(x.L, t)
				}
			case OpLike:
				note(x.R, rowset.TypeText)
			}
		case *Between:
			if t, ok := colType(x.X); ok {
				note(x.Lo, t)
				note(x.Hi, t)
			}
		case *In:
			if t, ok := colType(x.X); ok {
				for _, it := range x.List {
					note(it, t)
				}
			}
		}
	})
}

// ---------- binding ----------

// BindStatement clones st with every Param replaced by the Literal value of
// its argument slot. The original statement is never mutated, so a cached
// plan can be bound concurrently. Arity must already be validated; an
// unassigned or out-of-range ordinal is an error.
func BindStatement(st Statement, args []rowset.Value) (Statement, error) {
	b := &binder{args: args}
	out := b.statement(st)
	return out, b.err
}

// BindSelect is BindStatement narrowed to SELECT (the DMX layer substitutes
// embedded source selects directly).
func BindSelect(sel *SelectStmt, args []rowset.Value) (*SelectStmt, error) {
	b := &binder{args: args}
	out := b.selectStmt(sel)
	return out, b.err
}

// BindExpr clones one expression with parameters substituted.
func BindExpr(e Expr, args []rowset.Value) (Expr, error) {
	b := &binder{args: args}
	out := b.expr(e)
	return out, b.err
}

type binder struct {
	args []rowset.Value
	err  error
}

func (b *binder) fail(format string, a ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, a...)
	}
}

func (b *binder) statement(st Statement) Statement {
	switch s := st.(type) {
	case *SelectStmt:
		return b.selectStmt(s)
	case *InsertStmt:
		out := *s
		if len(s.Rows) > 0 {
			out.Rows = make([][]Expr, len(s.Rows))
			for i, row := range s.Rows {
				nr := make([]Expr, len(row))
				for j, e := range row {
					nr[j] = b.expr(e)
				}
				out.Rows[i] = nr
			}
		}
		if s.Query != nil {
			out.Query = b.selectStmt(s.Query)
		}
		return &out
	case *DeleteStmt:
		out := *s
		out.Where = b.expr(s.Where)
		return &out
	case *UpdateStmt:
		out := *s
		out.Set = make([]SetClause, len(s.Set))
		for i, sc := range s.Set {
			out.Set[i] = SetClause{Column: sc.Column, Value: b.expr(sc.Value)}
		}
		out.Where = b.expr(s.Where)
		return &out
	}
	return st
}

func (b *binder) selectStmt(sel *SelectStmt) *SelectStmt {
	if sel == nil {
		return nil
	}
	out := *sel
	out.Items = b.items(sel.Items)
	if len(sel.From) > 0 {
		out.From = append([]TableRef(nil), sel.From...)
		for i := range out.From {
			out.From[i].On = b.expr(out.From[i].On)
		}
	}
	out.Where = b.expr(sel.Where)
	if len(sel.GroupBy) > 0 {
		out.GroupBy = make([]Expr, len(sel.GroupBy))
		for i, g := range sel.GroupBy {
			out.GroupBy[i] = b.expr(g)
		}
	}
	out.Having = b.expr(sel.Having)
	out.OrderBy = b.orderBy(sel.OrderBy)
	return &out
}

func (b *binder) items(items []SelectItem) []SelectItem {
	if len(items) == 0 {
		return items
	}
	out := append([]SelectItem(nil), items...)
	for i := range out {
		if !out[i].Star {
			out[i].Expr = b.expr(out[i].Expr)
		}
	}
	return out
}

func (b *binder) orderBy(items []OrderItem) []OrderItem {
	if len(items) == 0 {
		return items
	}
	out := append([]OrderItem(nil), items...)
	for i := range out {
		out[i].Expr = b.expr(out[i].Expr)
	}
	return out
}

func (b *binder) expr(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *Param:
		if x.Ordinal < 0 || x.Ordinal >= len(b.args) {
			b.fail("sqlengine: parameter %s has no bound argument", x)
			return x
		}
		return &Literal{Val: b.args[x.Ordinal]}
	case *Binary:
		return &Binary{Op: x.Op, L: b.expr(x.L), R: b.expr(x.R)}
	case *Unary:
		return &Unary{Op: x.Op, X: b.expr(x.X)}
	case *IsNull:
		return &IsNull{X: b.expr(x.X), Negate: x.Negate}
	case *Between:
		return &Between{X: b.expr(x.X), Lo: b.expr(x.Lo), Hi: b.expr(x.Hi), Negate: x.Negate}
	case *In:
		out := &In{X: b.expr(x.X), Negate: x.Negate, Subquery: x.Subquery}
		if len(x.List) > 0 {
			out.List = make([]Expr, len(x.List))
			for i, it := range x.List {
				out.List[i] = b.expr(it)
			}
		}
		if x.Subquery != nil {
			out.Subquery = b.selectStmt(x.Subquery)
		}
		return out
	case *FuncCall:
		out := &FuncCall{Name: x.Name, Star: x.Star, Distinct: x.Distinct, Pos: x.Pos}
		if len(x.Args) > 0 {
			out.Args = make([]Expr, len(x.Args))
			for i, a := range x.Args {
				out.Args[i] = b.expr(a)
			}
		}
		return out
	case *Subquery:
		return &Subquery{Query: b.selectStmt(x.Query)}
	case *Exists:
		return &Exists{Query: b.selectStmt(x.Query)}
	}
	return e
}

// ---------- referenced objects ----------

// ReferencedTables lists every table or view name the statement reads or
// writes, lower-cased and deduplicated — the dependency set a cached plan is
// keyed on for invalidation.
func ReferencedTables(st Statement) []string {
	seen := make(map[string]struct{})
	var out []string
	add := func(name string) {
		key := strings.ToLower(name)
		if key == "" {
			return
		}
		if _, dup := seen[key]; dup {
			return
		}
		seen[key] = struct{}{}
		out = append(out, key)
	}
	var visitStmt func(Statement)
	visitExpr := func(e Expr) {
		walkExprTree(e, func(x Expr) {
			switch sub := x.(type) {
			case *Subquery:
				visitStmt(sub.Query)
			case *Exists:
				visitStmt(sub.Query)
			case *In:
				if sub.Subquery != nil {
					visitStmt(sub.Subquery)
				}
			}
		})
	}
	visitStmt = func(st Statement) {
		switch s := st.(type) {
		case *SelectStmt:
			for _, ref := range s.From {
				add(ref.Name)
			}
			walkStatementExprs(s, visitExpr)
		case *InsertStmt:
			add(s.Table)
			if s.Query != nil {
				visitStmt(s.Query)
			}
		case *DeleteStmt:
			add(s.Table)
		case *UpdateStmt:
			add(s.Table)
		case *CreateViewStmt:
			add(s.Name)
		case *DropViewStmt:
			add(s.Name)
		case *CreateTableStmt:
			add(s.Name)
		case *DropTableStmt:
			add(s.Name)
		}
	}
	visitStmt(st)
	return out
}
