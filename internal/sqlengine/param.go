package sqlengine

// Parameter placeholders for prepared statements: '?' (positional) and
// '@name' (named). Placeholders parse into Param nodes; AssignParams gives
// every node a slot ordinal at prepare time (named parameters share the slot
// of their first occurrence), InferParamTypes fills in best-effort types from
// the columns each placeholder is compared against, and Bind copies the path
// to each placeholder with Literal values substituted — so a cached plan is
// never mutated and can be shared across concurrent executions.

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

// CollectParams returns every Param node in the statement, ordered by source
// position.
func CollectParams(st Statement) []*Param {
	return sortedParams(func(f func(Expr) bool) { inspectStatement(st, f) })
}

// WalkExprParams visits every Param under the given expression roots in
// source order (the DMX layer's counterpart of CollectParams).
func WalkExprParams(roots []Expr, f func(*Param)) {
	ps := sortedParams(func(g func(Expr) bool) {
		for _, r := range roots {
			Inspect(r, g)
		}
	})
	for _, p := range ps {
		f(p)
	}
}

// sortedParams returns the Params the walk reaches, in source order.
func sortedParams(walk func(func(Expr) bool)) []*Param {
	var ps []*Param
	walk(func(e Expr) bool {
		if p, ok := e.(*Param); ok {
			ps = append(ps, p)
		}
		return true
	})
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].TokPos < ps[j].TokPos })
	return ps
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
	inspectStatement(st, func(e Expr) bool {
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
		return true
	})
}

// ---------- binding ----------

// Bind returns n — a Statement, a *SelectStmt or an Expr — with every Param
// replaced by the Literal value of its argument slot. Only the path from n to
// each placeholder is copied and n is never written, so a cached plan can be
// bound concurrently; n itself comes back when it holds no placeholder.
// Arity must already be validated; an unassigned or out-of-range ordinal is
// an error.
func Bind[N any](n N, args []rowset.Value) (N, error) {
	var err error
	bind := func(e Expr) Expr {
		p, ok := e.(*Param)
		switch {
		case !ok:
			return nil
		case p.Ordinal < 0 || p.Ordinal >= len(args):
			if err == nil {
				err = fmt.Errorf("sqlengine: parameter %s has no bound argument", p)
			}
			return p
		}
		return &Literal{Val: args[p.Ordinal]}
	}
	switch x := any(n).(type) {
	case nil: // an absent clause, such as a missing ON
	case Statement:
		n = rewriteStatement(x, bind).(N)
	case Expr:
		n = rewrite(x, bind).(N)
	default:
		return n, fmt.Errorf("sqlengine: Bind of %T, which is neither a Statement nor an Expr", n)
	}
	return n, err
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
	addFrom := func(sel *SelectStmt) {
		if sel != nil {
			for _, ref := range sel.From {
				add(ref.Name)
			}
		}
	}
	switch s := st.(type) {
	case *SelectStmt:
		addFrom(s)
	case *InsertStmt:
		add(s.Table)
		addFrom(s.Query)
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
	inspectStatement(st, func(e Expr) bool {
		switch x := e.(type) {
		case *Subquery:
			addFrom(x.Query)
		case *Exists:
			addFrom(x.Query)
		}
		return true
	})
	return out
}
