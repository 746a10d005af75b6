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

// Execute runs the shaped query against the engine and returns the
// hierarchical rowset: the root query's columns plus one TABLE column per
// APPEND, each cell holding the child rows whose relate key matches.
func (q *Query) Execute(e *sqlengine.Engine) (*rowset.Rowset, error) {
	return q.ExecuteContext(context.Background(), e) //dmlint:allow ctxflow — documented context-free convenience form; ExecuteContext is the primary API.
}

// childGroup holds one APPEND child's rows bucketed by relate key, ready to
// attach to parent rows.
type childGroup struct {
	byKey  map[string]*rowset.Rowset
	schema *rowset.Schema
}

// ExecuteContext is Execute with cancellation: ctx is checked between the
// root query and each APPEND child, so a deep SHAPE tree aborts at the next
// query boundary once ctx is done. When ctx carries an obs.Trace the
// execution records a "shape" span with one "append" child span per APPEND
// clause (a nested SHAPE child nests its own "shape" span underneath); the
// inner SELECTs contribute their own operator spans through QueryContext.
//
// Eligible APPEND children (see compileRelatePlan) skip query execution
// entirely: the relate column gets an automatically created hash index and
// each parent key is answered by one bucket lookup.
func (q *Query) ExecuteContext(ctx context.Context, e *sqlengine.Engine) (*rowset.Rowset, error) {
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
	if len(q.Appends) == 0 {
		spShape.SetRows(int64(parent.Len()))
		return parent, nil
	}

	cols := append([]rowset.Column(nil), parent.Schema().Columns...)
	groups := make([]childGroup, len(q.Appends))
	for i, ap := range q.Appends {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		spAp := t.StartSpan("append", ap.As)
		var g childGroup
		var childRows int64
		if plan := compileRelatePlan(e, ap); plan != nil {
			g, childRows, err = plan.run(t, parent, ap)
		} else {
			g, childRows, err = runAppendChild(ctx, e, ap)
		}
		if err != nil {
			t.EndSpan(spAp)
			return nil, err
		}
		groups[i] = g
		cols = append(cols, rowset.Column{Name: ap.As, Type: rowset.TypeTable, Nested: g.schema})
		spAp.SetRows(childRows)
		t.EndSpan(spAp)
	}

	schema, err := rowset.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	parentOrds := make([]int, len(q.Appends))
	for i, ap := range q.Appends {
		ord, ok := parent.Schema().Lookup(ap.ParentCol)
		if !ok {
			return nil, fmt.Errorf("shape: RELATE parent column %q not in parent query output %v",
				ap.ParentCol, parent.Schema().Names())
		}
		parentOrds[i] = ord
	}

	out := rowset.New(schema)
	for _, pr := range parent.Rows() {
		row := make(rowset.Row, 0, schema.Len())
		row = append(row, pr...)
		for i := range q.Appends {
			k := rowset.Key(pr[parentOrds[i]])
			sub, ok := groups[i].byKey[k]
			if !ok {
				sub = rowset.New(groups[i].schema)
			}
			row = append(row, sub)
		}
		if err := out.Append(row); err != nil {
			return nil, err
		}
	}
	spShape.SetRows(int64(out.Len()))
	return out, nil
}

// runAppendChild is the general APPEND path: execute the child query (which
// may itself be a SHAPE) and bucket its rows by relate key in one pass. The
// buckets adopt the child's rows — already canonical, coming out of the
// executor — instead of re-normalizing each one.
func runAppendChild(ctx context.Context, e *sqlengine.Engine, ap Append) (childGroup, int64, error) {
	var g childGroup
	child, err := ap.Child.ExecuteContext(ctx, e)
	if err != nil {
		return g, 0, err
	}
	keyOrd, ok := child.Schema().Lookup(ap.ChildCol)
	if !ok {
		return g, 0, fmt.Errorf("shape: RELATE child column %q not in child query output %v",
			ap.ChildCol, child.Schema().Names())
	}
	buckets := make(map[string][]rowset.Row)
	var keyBuf []byte
	for _, r := range child.Rows() {
		keyBuf = rowset.AppendKey(keyBuf[:0], r[keyOrd])
		k := string(keyBuf)
		buckets[k] = append(buckets[k], r)
	}
	byKey := make(map[string]*rowset.Rowset, len(buckets))
	for k, rows := range buckets {
		byKey[k] = rowset.Adopt(child.Schema(), rows)
	}
	g = childGroup{byKey: byKey, schema: child.Schema()}
	return g, int64(child.Len()), nil
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

// ExecuteString parses and executes a SHAPE statement in one call.
func ExecuteString(e *sqlengine.Engine, src string) (*rowset.Rowset, error) {
	return ExecuteStringContext(context.Background(), e, src) //dmlint:allow ctxflow — documented context-free convenience form; ExecuteStringContext is the primary API.
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
