package sqlengine

// The expression tree has one walker (Inspect) and one rewriter (rewrite).
// Both stand on two functions: mapChildren, the one place that lists a node's
// children, and mapPositions, the one list of where a statement holds
// expressions. Apart from compile, nothing else in the package knows the
// tree's shape (TestOneTreeWalker).

// Inspect traverses e depth-first in source order, in the manner of
// go/ast.Inspect: it calls f(e) and, if f returns true, inspects each of e's
// children — an operator's operands, a call's arguments, an IN list, and the
// expression positions of a subquery's statement. f returning false at a
// *Subquery or *Exists (an IN subquery is a *Subquery child of the *In) keeps
// the walk out of that subquery.
func Inspect(e Expr, f func(Expr) bool) {
	if e != nil && f(e) {
		mapChildren(e, func(c Expr) Expr { Inspect(c, f); return c })
	}
}

// inspectStatement inspects every expression position of st.
func inspectStatement(st Statement, f func(Expr) bool) {
	mapPositions(st, func(e Expr) Expr { Inspect(e, f); return e })
}

// rewrite returns e with nodes replaced by f. f sees the nodes preorder: a
// non-nil result replaces the node it was given and is not descended into
// (f returning its argument keeps a subtree as it is); nil keeps the node and
// descends into its children. Only the nodes on the path from e to a
// replacement are copied, so e itself comes back, and nothing is allocated,
// when f replaces nothing. e is never written. An IN's subquery child may be
// replaced only by a *Subquery.
func rewrite(e Expr, f func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	if r := f(e); r != nil {
		return r
	}
	return mapChildren(e, func(c Expr) Expr { return rewrite(c, f) })
}

// rewriteStatement rewrites every expression position of st, copying only
// the statement and the slices whose positions changed.
func rewriteStatement(st Statement, f func(Expr) Expr) Statement {
	return mapPositions(st, func(e Expr) Expr { return rewrite(e, f) })
}

// mapChildren returns e with f applied to each of its children in source
// order: e itself when f returns every child unchanged, else a copy of e
// holding f's results. A subquery's children are its statement's positions.
func mapChildren(e Expr, f func(Expr) Expr) Expr {
	switch x := e.(type) {
	case *Binary:
		if l, r := f(x.L), f(x.R); l != x.L || r != x.R {
			return &Binary{Op: x.Op, L: l, R: r}
		}
	case *Unary:
		if y := f(x.X); y != x.X {
			return &Unary{Op: x.Op, X: y}
		}
	case *IsNull:
		if y := f(x.X); y != x.X {
			return &IsNull{X: y, Negate: x.Negate}
		}
	case *Between:
		if y, lo, hi := f(x.X), f(x.Lo), f(x.Hi); y != x.X || lo != x.Lo || hi != x.Hi {
			return &Between{X: y, Lo: lo, Hi: hi, Negate: x.Negate}
		}
	case *In:
		y := f(x.X)
		list, changed := mapSlice(x.List, changer(f))
		sub := x.Subquery
		if sub != nil {
			sub = f(sub).(*Subquery)
		}
		if changed || y != x.X || sub != x.Subquery {
			return &In{X: y, List: list, Negate: x.Negate, Subquery: sub}
		}
	case *FuncCall:
		if args, changed := mapSlice(x.Args, changer(f)); changed {
			out := *x
			out.Args = args
			return &out
		}
	case *Subquery:
		if q := mapSelect(x.Query, f); q != x.Query {
			return &Subquery{Query: q}
		}
	case *Exists:
		if q := mapSelect(x.Query, f); q != x.Query {
			return &Exists{Query: q}
		}
	}
	return e
}

// mapPositions applies f to every expression position of st, in source
// order — a SELECT's items, FROM … ON conditions, WHERE, GROUP BY, HAVING and
// ORDER BY; an INSERT's VALUES rows and query; an UPDATE's SET values and
// WHERE; a DELETE's WHERE — and returns st with each position replaced by f's
// result: st itself when f returns every expression unchanged, else a copy
// sharing all that f left alone. Other statements have no positions; a
// CREATE VIEW's query is not one, so its subqueries run each time the view is
// read, not once when it is created.
func mapPositions(st Statement, f func(Expr) Expr) Statement {
	g := changer(f)
	switch s := st.(type) {
	case *SelectStmt:
		if out := mapSelect(s, f); out != s {
			return out
		}
	case *InsertStmt:
		rows, changed := mapSlice(s.Rows, func(row []Expr) ([]Expr, bool) { return mapSlice(row, g) })
		if q := mapSelect(s.Query, f); changed || q != s.Query {
			out := *s
			out.Rows, out.Query = rows, q
			return &out
		}
	case *UpdateStmt:
		set, changed := mapSlice(s.Set, func(sc SetClause) (SetClause, bool) {
			v, ok := g(sc.Value)
			return SetClause{Column: sc.Column, Value: v}, ok
		})
		if where, ok := g(s.Where); changed || ok {
			out := *s
			out.Set, out.Where = set, where
			return &out
		}
	case *DeleteStmt:
		if where, ok := g(s.Where); ok {
			out := *s
			out.Where = where
			return &out
		}
	}
	return st
}

// mapSelect is mapPositions for a SELECT (nil stays nil).
func mapSelect(s *SelectStmt, f func(Expr) Expr) *SelectStmt {
	if s == nil {
		return nil
	}
	g := changer(f)
	items, c1 := mapSlice(s.Items, func(it SelectItem) (SelectItem, bool) {
		var ok bool
		it.Expr, ok = g(it.Expr)
		return it, ok
	})
	from, c2 := mapSlice(s.From, func(ref TableRef) (TableRef, bool) {
		var ok bool
		ref.On, ok = g(ref.On)
		return ref, ok
	})
	where, c3 := g(s.Where)
	groupBy, c4 := mapSlice(s.GroupBy, g)
	having, c5 := g(s.Having)
	orderBy, c6 := mapSlice(s.OrderBy, func(o OrderItem) (OrderItem, bool) {
		var ok bool
		o.Expr, ok = g(o.Expr)
		return o, ok
	})
	if !(c1 || c2 || c3 || c4 || c5 || c6) {
		return s
	}
	out := *s
	out.Items, out.From, out.Where, out.GroupBy, out.Having, out.OrderBy = items, from, where, groupBy, having, orderBy
	return &out
}

// changer adapts f to mapSlice: it applies f to a present expression and
// reports whether f changed it; an absent (nil) one stays absent.
func changer(f func(Expr) Expr) func(Expr) (Expr, bool) {
	return func(e Expr) (Expr, bool) {
		if e == nil {
			return nil, false
		}
		y := f(e)
		return y, y != e
	}
}

// mapSlice returns xs with f applied to each element, and whether f changed
// any. xs is never written: it is copied at the first change.
func mapSlice[T any](xs []T, f func(T) (T, bool)) ([]T, bool) {
	out, changed := xs, false
	for i, x := range xs {
		y, ok := f(x)
		if !ok {
			continue
		}
		if !changed {
			out, changed = append([]T(nil), xs...), true
		}
		out[i] = y
	}
	return out, changed
}
