package sqlengine

import (
	"context"
	"fmt"

	"repro/internal/rowset"
)

// Uncorrelated subqueries: scalar (SELECT ...) expressions, x IN (SELECT ...)
// and EXISTS (SELECT ...), in any expression position of any statement. The
// engine resolves them once per statement, before evaluation, by executing
// the inner query under the statement's context and grafting its result into
// the expression tree as literals. Correlated subqueries (inner references to
// outer columns) are out of scope and surface as unknown-column errors from
// the inner query.

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

// resolveSubqueries runs every subquery of st once, under ctx, and returns st
// with the results grafted in as literals, in every expression position: a
// scalar subquery becomes its one value (NULL when it returns no row), EXISTS
// a boolean, and x IN (SELECT …) the list of the column's values. A subquery
// nested in another is resolved when the outer one runs. st is never written.
func (e *Engine) resolveSubqueries(ctx context.Context, st Statement) (Statement, error) {
	var err error
	run := func(sel *SelectStmt, what string) *rowset.Rowset {
		if err != nil {
			return nil
		}
		rs, qerr := e.QueryContext(ctx, sel)
		switch {
		case qerr != nil:
			err = qerr
		case what != "" && rs.Schema().Len() != 1:
			err = fmt.Errorf("sqlengine: %s subquery returns %d columns", what, rs.Schema().Len())
		default:
			return rs
		}
		return nil
	}
	var resolve func(Expr) Expr
	resolve = func(x Expr) Expr {
		switch s := x.(type) {
		case *Subquery:
			rs := run(s.Query, "scalar")
			switch {
			case rs == nil:
			case rs.Len() == 0:
				return &Literal{Val: nil}
			case rs.Len() == 1:
				return &Literal{Val: rs.Row(0)[0]}
			default:
				err = fmt.Errorf("sqlengine: scalar subquery returned %d rows", rs.Len())
			}
			return x
		case *Exists:
			if rs := run(s.Query, ""); rs != nil {
				return &Literal{Val: rs.Len() > 0}
			}
			return x
		case *In:
			if s.Subquery == nil {
				return nil
			}
			out := &In{X: rewrite(s.X, resolve), Negate: s.Negate}
			rs := run(s.Subquery.Query, "IN")
			if rs == nil { // this or an earlier subquery failed
				return x
			}
			for _, r := range rs.Rows() {
				out.List = append(out.List, &Literal{Val: r[0]})
			}
			return out
		}
		return nil
	}
	out := rewriteStatement(st, resolve)
	return out, err
}
