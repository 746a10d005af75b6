package sqlengine

import "fmt"

// Uncorrelated subqueries: scalar (SELECT ...) expressions, x IN (SELECT ...)
// and EXISTS (SELECT ...). The engine resolves them once per statement,
// before row-at-a-time evaluation, by executing the inner query and grafting
// its result into the expression tree as literals. Correlated subqueries
// (inner references to outer columns) are out of scope and surface as
// unknown-column errors from the inner query.

// Subquery is a parenthesized SELECT used as a scalar expression.
type Subquery struct {
	Query *SelectStmt
}

func (*Subquery) expr() {}

func (s *Subquery) String() string { return "(<subquery>)" }

// Exists is EXISTS (SELECT ...).
type Exists struct {
	Query *SelectStmt
}

func (*Exists) expr() {}

func (e *Exists) String() string { return "EXISTS (<subquery>)" }

func containsSubquery(expr Expr) bool {
	switch x := expr.(type) {
	case *Subquery, *Exists:
		return true
	case *Binary:
		return containsSubquery(x.L) || containsSubquery(x.R)
	case *Unary:
		return containsSubquery(x.X)
	case *IsNull:
		return containsSubquery(x.X)
	case *Between:
		return containsSubquery(x.X) || containsSubquery(x.Lo) || containsSubquery(x.Hi)
	case *In:
		if x.Subquery != nil || containsSubquery(x.X) {
			return true
		}
		for _, it := range x.List {
			if containsSubquery(it) {
				return true
			}
		}
	case *FuncCall:
		for _, a := range x.Args {
			if containsSubquery(a) {
				return true
			}
		}
	}
	return false
}

// resolveSub executes every subquery in the expression once and returns a
// tree with the results substituted.
func (e *Engine) resolveSub(expr Expr) (Expr, error) {
	switch x := expr.(type) {
	case *Subquery:
		rs, err := e.Query(x.Query)
		if err != nil {
			return nil, err
		}
		if rs.Schema().Len() != 1 {
			return nil, fmt.Errorf("sqlengine: scalar subquery returns %d columns", rs.Schema().Len())
		}
		switch rs.Len() {
		case 0:
			return &Literal{Val: nil}, nil
		case 1:
			return &Literal{Val: rs.Row(0)[0]}, nil
		}
		return nil, fmt.Errorf("sqlengine: scalar subquery returned %d rows", rs.Len())
	case *Exists:
		rs, err := e.Query(x.Query)
		if err != nil {
			return nil, err
		}
		return &Literal{Val: rs.Len() > 0}, nil
	case *In:
		out := &In{Negate: x.Negate}
		var err error
		out.X, err = e.resolveSub(x.X)
		if err != nil {
			return nil, err
		}
		if x.Subquery != nil {
			rs, err := e.Query(x.Subquery)
			if err != nil {
				return nil, err
			}
			if rs.Schema().Len() != 1 {
				return nil, fmt.Errorf("sqlengine: IN subquery returns %d columns", rs.Schema().Len())
			}
			for _, r := range rs.Rows() {
				out.List = append(out.List, &Literal{Val: r[0]})
			}
			return out, nil
		}
		for _, it := range x.List {
			ri, err := e.resolveSub(it)
			if err != nil {
				return nil, err
			}
			out.List = append(out.List, ri)
		}
		return out, nil
	case *Binary:
		l, err := e.resolveSub(x.L)
		if err != nil {
			return nil, err
		}
		r, err := e.resolveSub(x.R)
		if err != nil {
			return nil, err
		}
		return &Binary{Op: x.Op, L: l, R: r}, nil
	case *Unary:
		in, err := e.resolveSub(x.X)
		if err != nil {
			return nil, err
		}
		return &Unary{Op: x.Op, X: in}, nil
	case *IsNull:
		in, err := e.resolveSub(x.X)
		if err != nil {
			return nil, err
		}
		return &IsNull{X: in, Negate: x.Negate}, nil
	case *Between:
		bx, err := e.resolveSub(x.X)
		if err != nil {
			return nil, err
		}
		lo, err := e.resolveSub(x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := e.resolveSub(x.Hi)
		if err != nil {
			return nil, err
		}
		return &Between{X: bx, Lo: lo, Hi: hi, Negate: x.Negate}, nil
	case *FuncCall:
		out := &FuncCall{Name: x.Name, Star: x.Star, Distinct: x.Distinct, Pos: x.Pos}
		for _, a := range x.Args {
			ra, err := e.resolveSub(a)
			if err != nil {
				return nil, err
			}
			out.Args = append(out.Args, ra)
		}
		return out, nil
	}
	return expr, nil
}

// resolveStatementSubqueries rewrites every expression position of a SELECT.
func (e *Engine) resolveStatementSubqueries(sel *SelectStmt) (*SelectStmt, error) {
	needs := false
	for _, it := range sel.Items {
		if !it.Star && containsSubquery(it.Expr) {
			needs = true
		}
	}
	needs = needs || containsSubquery(sel.Where) || containsSubquery(sel.Having)
	for _, g := range sel.GroupBy {
		needs = needs || containsSubquery(g)
	}
	for _, o := range sel.OrderBy {
		needs = needs || containsSubquery(o.Expr)
	}
	if !needs {
		return sel, nil
	}
	out := *sel
	out.Items = append([]SelectItem(nil), sel.Items...)
	for i := range out.Items {
		if out.Items[i].Star {
			continue
		}
		r, err := e.resolveSub(out.Items[i].Expr)
		if err != nil {
			return nil, err
		}
		out.Items[i].Expr = r
	}
	var err error
	if out.Where, err = e.resolveSub(sel.Where); err != nil {
		return nil, err
	}
	if out.Having, err = e.resolveSub(sel.Having); err != nil {
		return nil, err
	}
	out.GroupBy = append([]Expr(nil), sel.GroupBy...)
	for i := range out.GroupBy {
		if out.GroupBy[i], err = e.resolveSub(out.GroupBy[i]); err != nil {
			return nil, err
		}
	}
	out.OrderBy = append([]OrderItem(nil), sel.OrderBy...)
	for i := range out.OrderBy {
		if out.OrderBy[i].Expr, err = e.resolveSub(out.OrderBy[i].Expr); err != nil {
			return nil, err
		}
	}
	return &out, nil
}
