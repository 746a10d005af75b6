// Package shape implements the Data Shaping Service used by the paper
// (Section 3.1): the SHAPE statement that assembles a hierarchical rowset —
// a caseset — from flat SQL queries. It is the Go equivalent of the MDAC
// Data Shaping Service the paper's provider relies on.
//
// Grammar (brace-delimited inner queries, as in the paper's listings):
//
//	SHAPE {<select>}
//	  APPEND ( {<select>} RELATE <parent col> TO <child col> ) AS <name>
//	  [ APPEND ... ]*
//
// A child may itself be a SHAPE, producing deeper nesting. The RELATE clause
// names the linking columns; children are grouped per parent key into nested
// TABLE-valued columns. Child rows keep all their columns (including the
// relating key), matching the Data Shaping Service; consumers bind the
// columns they need by name.
package shape

import (
	"context"
	"fmt"

	"repro/internal/lex"
	"repro/internal/obs"
	"repro/internal/rowset"
	"repro/internal/sqlengine"
	"repro/internal/storage"
)

// Query is a parsed SHAPE statement (or a bare inner query with no appends).
type Query struct {
	Root    *sqlengine.SelectStmt
	Appends []Append
}

// Append is one APPEND clause: a child query related to the parent.
type Append struct {
	Child     *Query
	ParentCol string
	ChildCol  string
	As        string
}

// Parse parses a SHAPE statement starting at the scanner's position. The
// scanner is left after the statement, so SHAPE can be embedded in DMX.
func Parse(s *lex.Scanner) (*Query, error) {
	if err := s.Expect("SHAPE"); err != nil {
		return nil, err
	}
	return parseBody(s)
}

func parseBody(s *lex.Scanner) (*Query, error) {
	root, err := parseBraceQuery(s)
	if err != nil {
		return nil, err
	}
	q := &Query{Root: root}
	for s.Accept("APPEND") {
		if err := s.ExpectPunct("("); err != nil {
			return nil, err
		}
		var child *Query
		if s.Accept("SHAPE") {
			child, err = parseBody(s)
		} else {
			var inner *sqlengine.SelectStmt
			inner, err = parseBraceQuery(s)
			child = &Query{Root: inner}
		}
		if err != nil {
			return nil, err
		}
		if err := s.Expect("RELATE"); err != nil {
			return nil, err
		}
		parentCol, err := s.Name()
		if err != nil {
			return nil, err
		}
		if err := s.Expect("TO"); err != nil {
			return nil, err
		}
		childCol, err := s.Name()
		if err != nil {
			return nil, err
		}
		if err := s.ExpectPunct(")"); err != nil {
			return nil, err
		}
		if err := s.Expect("AS"); err != nil {
			return nil, err
		}
		name, err := s.Name()
		if err != nil {
			return nil, err
		}
		q.Appends = append(q.Appends, Append{
			Child: child, ParentCol: parentCol, ChildCol: childCol, As: name,
		})
	}
	return q, nil
}

func parseBraceQuery(s *lex.Scanner) (*sqlengine.SelectStmt, error) {
	if err := s.ExpectPunct("{"); err != nil {
		return nil, err
	}
	sel, err := sqlengine.ParseSelect(s)
	if err != nil {
		return nil, err
	}
	if err := s.ExpectPunct("}"); err != nil {
		return nil, err
	}
	return sel, nil
}

// ParseString parses a complete SHAPE statement from src.
func ParseString(src string) (*Query, error) {
	s := lex.NewScanner(src)
	q, err := Parse(s)
	if err != nil {
		return nil, err
	}
	if err := s.ExpectEOF("SHAPE statement"); err != nil {
		return nil, err
	}
	return q, nil
}

// Caseset is a shaped query's result as the executor assembles it, in one
// pass and without copies: the parent query's rows exactly as the engine left
// them and, per APPEND, the child rows grouped by parent as positions into the
// rows they were read from — the table's snapshot when the RELATE index
// answered, the child query's output otherwise. A NULL relate key matches
// nothing: its case has an empty nested table, and a child with a NULL key
// belongs to no case. Rowset renders the nested rowset that consumers outside
// the provider's training path see.
type Caseset struct {
	// Schema is the parent query's columns, then one TABLE column per APPEND.
	Schema *rowset.Schema
	// Rows are the parent query's output rows, one per case.
	Rows []rowset.Row
	// Tables[a] holds APPEND a's children: column len(Rows[i])+a of case i.
	Tables []rowset.Groups
}

// Rowset renders the caseset as a hierarchical rowset: every parent row
// followed by one nested *rowset.Rowset per APPEND. A caseset without APPENDs
// is its parent rows, shared.
func (c *Caseset) Rowset() *rowset.Rowset {
	if len(c.Tables) == 0 {
		return rowset.Adopt(c.Schema, c.Rows)
	}
	width := c.Schema.Len()
	first := width - len(c.Tables)
	nested := make([][]rowset.Row, len(c.Tables))
	for a := range c.Tables {
		nested[a] = childRows(&c.Tables[a])
	}
	vals := make([]rowset.Value, len(c.Rows)*width)
	out := make([]rowset.Row, len(c.Rows))
	for i, pr := range c.Rows {
		row := vals[i*width : (i+1)*width : (i+1)*width]
		copy(row, pr)
		for a := range c.Tables {
			var rows []rowset.Row
			if lo, hi := c.Tables[a].Bounds(i); lo < hi {
				rows = nested[a][lo:hi:hi]
			}
			row[first+a] = rowset.Adopt(c.Schema.Column(first+a).Nested, rows)
		}
		out[i] = row
	}
	return rowset.Adopt(c.Schema, out)
}

// childRows renders the rows g's positions name, in order, in the child
// query's output layout.
func childRows(g *rowset.Groups) []rowset.Row {
	out := make([]rowset.Row, len(g.Pos))
	n := len(g.Cols)
	vals := make([]rowset.Value, len(g.Pos)*n)
	for j, p := range g.Pos {
		out[j] = g.Base[p]
		if g.Cols != nil {
			out[j] = vals[j*n : (j+1)*n : (j+1)*n]
			for k, o := range g.Cols {
				out[j][k] = g.Base[p][o]
			}
		}
	}
	return out
}

// ExecuteContext runs the shaped query and renders its caseset (Run, then
// Caseset.Rowset): the root query's columns plus one TABLE column per APPEND,
// each cell holding the child rows whose relate key matches.
func (q *Query) ExecuteContext(ctx context.Context, e *sqlengine.Engine) (*rowset.Rowset, error) {
	cs, err := q.Run(ctx, e)
	if err != nil {
		return nil, err
	}
	return cs.Rowset(), nil
}

// Run executes the shaped query and assembles its caseset. ctx is checked
// between the root query and each APPEND child, and every
// rowset.DefaultBatchSize parents while an APPEND's children are grouped.
// When ctx carries an obs.Trace the execution records a "shape" span with one
// "append" child span per APPEND clause (a nested SHAPE child nests its own
// "shape" span underneath); the inner SELECTs contribute their own operator
// spans through QueryContext.
//
// Eligible APPEND children (see compileRelatePlan) skip query execution
// entirely: the relate column gets an automatically created hash index and
// each parent key is answered by one bucket lookup.
func (q *Query) Run(ctx context.Context, e *sqlengine.Engine) (*Caseset, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t := obs.FromContext(ctx)
	spShape := t.StartSpan("shape", "")
	defer t.EndSpan(spShape)
	parent, err := e.QueryContext(ctx, q.Root)
	if err != nil {
		return nil, err
	}
	cs := &Caseset{Schema: parent.Schema(), Rows: parent.Rows()}
	spShape.SetRows(int64(len(cs.Rows)))
	if len(q.Appends) == 0 {
		return cs, nil
	}

	cols := append([]rowset.Column(nil), parent.Schema().Columns...)
	keys := make([]rowset.Value, len(cs.Rows))
	cs.Tables = make([]rowset.Groups, len(q.Appends))
	for a, ap := range q.Appends {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ord, ok := parent.Schema().Lookup(ap.ParentCol)
		if !ok {
			return nil, fmt.Errorf("shape: RELATE parent column %q not in parent query output %v",
				ap.ParentCol, parent.Schema().Names())
		}
		for i, r := range cs.Rows {
			keys[i] = r[ord]
		}
		spAp := t.StartSpan("append", ap.As)
		var nested *rowset.Schema
		var childRows int64
		if plan := compileRelatePlan(e, ap); plan != nil {
			nested = plan.schema
			cs.Tables[a], childRows, err = plan.run(ctx, t, keys)
		} else {
			nested, cs.Tables[a], childRows, err = runAppendChild(ctx, e, ap, keys)
		}
		if err != nil {
			t.EndSpan(spAp)
			return nil, err
		}
		cols = append(cols, rowset.Column{Name: ap.As, Type: rowset.TypeTable, Nested: nested})
		spAp.SetRows(childRows)
		t.EndSpan(spAp)
	}
	if cs.Schema, err = rowset.NewSchema(cols...); err != nil {
		return nil, err
	}
	return cs, nil
}

// runAppendChild is the general APPEND path: execute the child query (which
// may itself be a SHAPE) and group its rows by relate key, in place.
func runAppendChild(ctx context.Context, e *sqlengine.Engine, ap Append, keys []rowset.Value) (*rowset.Schema, rowset.Groups, int64, error) {
	child, err := ap.Child.ExecuteContext(ctx, e)
	if err != nil {
		return nil, rowset.Groups{}, 0, err
	}
	keyOrd, ok := child.Schema().Lookup(ap.ChildCol)
	if !ok {
		return nil, rowset.Groups{}, 0, fmt.Errorf("shape: RELATE child column %q not in child query output %v",
			ap.ChildCol, child.Schema().Names())
	}
	g, err := storage.GroupRows(ctx, child.Rows(), keyOrd, child.Schema().Column(keyOrd).Type, keys)
	return child.Schema(), g, int64(child.Len()), err
}

// PlanSpan renders the shaped query's executor plan as a span tree without
// running it, mirroring the spans ExecuteContext records: a "shape" node over
// the root SELECT's plan, with one "append" node per APPEND clause holding
// the child's plan.
func (q *Query) PlanSpan() *obs.Span {
	sp := obs.NewSpan("shape", "")
	sp.Add(q.Root.PlanSpan())
	for _, ap := range q.Appends {
		apSp := obs.NewSpan("append", ap.As)
		apSp.Add(ap.Child.PlanSpan())
		sp.Add(apSp)
	}
	return sp
}

// ExecuteStringContext parses and executes a SHAPE statement in one call,
// honouring ctx cancellation at query boundaries.
func ExecuteStringContext(ctx context.Context, e *sqlengine.Engine, src string) (*rowset.Rowset, error) {
	q, err := ParseString(src)
	if err != nil {
		return nil, err
	}
	return q.ExecuteContext(ctx, e)
}
