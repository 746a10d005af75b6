// Package dmx implements the Data Mining Extensions language proposed by the
// paper: the CREATE MINING MODEL / INSERT INTO / PREDICTION JOIN / DELETE
// FROM / DROP MINING MODEL statement family, including the SHAPE-based
// hierarchical sources and the prediction functions (Predict,
// PredictProbability, PredictHistogram, TopCount, Cluster, ...), and SELECTs
// over the rowsets the provider exposes (a model's content, columns, cases and
// PMML; the $SYSTEM schema rowsets). A SELECT's clauses are the SQL engine's:
// this package parses only what DMX adds between them, its FROM. It is the
// provider's one front end: Parse turns any command text — DMX, plain SQL or a
// standalone SHAPE — into the statement the provider package compiles and runs.
package dmx

import (
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/lex"
	"repro/internal/rowset"
	"repro/internal/shape"
	"repro/internal/sqlengine"
)

// Statement is any parsed command.
type Statement interface{ dmxStmt() }

// SQL is a command the SQL engine runs as it stands: a SELECT whose FROM names
// no DMX source, DML or DDL over tables.
type SQL struct {
	Stmt sqlengine.Statement
}

func (*SQL) dmxStmt() {}

// Shape is a standalone SHAPE command; its result is the caseset it
// assembles.
type Shape struct {
	Query *shape.Query
}

func (*Shape) dmxStmt() {}

// CreateModel is CREATE MINING MODEL <name> (<columns>) USING <algo> [(params)].
type CreateModel struct {
	Def *core.ModelDef
}

func (*CreateModel) dmxStmt() {}

// Binding is one entry of an INSERT INTO column list. SKIP entries consume a
// source column without binding it (the DMX mechanism for RELATE keys the
// model does not want).
type Binding struct {
	Name   string
	Skip   bool
	Nested []Binding // non-nil for TABLE-column bindings
	// Pos locates the binding's name token for semantic diagnostics.
	Pos lex.Pos
}

// Source is the data source of an INSERT INTO or PREDICTION JOIN: either a
// SHAPE statement (hierarchical) or a plain SELECT.
type Source struct {
	Shape  *shape.Query
	Select *sqlengine.SelectStmt
}

// InsertInto is INSERT INTO <model> (<bindings>) <source>: model population,
// the paper's Section 3.3 "populating a mining model".
type InsertInto struct {
	Model    string
	Bindings []Binding
	Source   Source
	// ModelPos locates the model name token.
	ModelPos lex.Pos
}

func (*InsertInto) dmxStmt() {}

// PredictionSelect is SELECT <items> FROM <model> [NATURAL] PREDICTION JOIN
// (<source>) [AS <alias>] [ON <cond>] [WHERE <cond>] [ORDER BY ...]: the
// SELECT the SQL engine runs over the source cases.
type PredictionSelect struct {
	// Select holds the statement's own clauses — DISTINCT, TOP, the items,
	// WHERE, ORDER BY (and GROUP BY/HAVING, which the binder rejects); its
	// From is empty. Expressions may use the prediction functions.
	Select  *sqlengine.SelectStmt
	Model   string
	Natural bool
	Source  Source
	Alias   string
	// On is a conjunction of equality pairs binding model columns to source
	// columns; nil for NATURAL joins.
	On sqlengine.Expr
	// ModelPos locates the model name token.
	ModelPos lex.Pos
}

func (*PredictionSelect) dmxStmt() {}

// OnBindings interprets the statement's ON clause against the model's
// definition: a conjunction of equalities between model column paths
// ([Model].[Col] or [Model].[Table].[Col]) and source column paths (t.[Col] or
// t.[Table].[Col]), each binding a model column to the source column of its
// name — the binding list an INSERT INTO would spell out, with each TABLE
// column's nested bindings gathered under one entry. Requiring the two names
// to match keeps the semantics of the paper's examples without a rename
// layer. report receives every equality that binds nothing, at the reference
// that makes it so. With src, the unqualified source schema, a scalar binding
// must also name one of its columns, of a compatible type; without it, the
// source's columns are left to the caller.
func (ps *PredictionSelect) OnBindings(def *core.ModelDef, src *rowset.Schema, report func(pos lex.Pos, format string, args ...any)) []Binding {
	var out []Binding
	var walk func(on sqlengine.Expr)
	walk = func(on sqlengine.Expr) {
		if b, ok := on.(*sqlengine.Binary); ok {
			switch b.Op {
			case sqlengine.OpAnd:
				walk(b.L)
				walk(b.R)
				return
			case sqlengine.OpEq:
				l, ok1 := b.L.(*sqlengine.ColumnRef)
				r, ok2 := b.R.(*sqlengine.ColumnRef)
				if !ok1 || !ok2 {
					report(ExprPos(on), "ON clause equality must compare columns, found %s", on)
					return
				}
				out = ps.onPair(out, def, src, l, r, report)
				return
			}
		}
		report(ExprPos(on), "ON clause must be a conjunction of equalities, found %s", on)
	}
	walk(ps.On)
	return out
}

// onPair interprets one equality of the ON clause, appending what it binds to
// out.
func (ps *PredictionSelect) onPair(out []Binding, def *core.ModelDef, src *rowset.Schema, l, r *sqlengine.ColumnRef, report func(lex.Pos, string, ...any)) []Binding {
	lp, rp := refPath(l), refPath(r)
	mRef, sRef, mPath, sPath := l, r, lp, rp
	switch {
	case len(lp) > 1 && strings.EqualFold(lp[0], ps.Model):
	case len(rp) > 1 && strings.EqualFold(rp[0], ps.Model):
		mRef, sRef, mPath, sPath = r, l, rp, lp
	default:
		report(l.Pos, "ON clause equality does not reference model %q: %s = %s", ps.Model, l, r)
		return out
	}
	mPath = mPath[1:]
	if ps.Alias != "" && len(sPath) > 1 && strings.EqualFold(sPath[0], ps.Alias) {
		sPath = sPath[1:]
	}
	switch len(mPath) {
	case 1:
		mc, ok := def.Column(mPath[0])
		switch {
		case !ok:
			report(mRef.Pos, "unknown column %q in model %s", mPath[0], def.Name)
		case mc.Content == core.ContentTable:
			report(mRef.Pos, "TABLE column %q of model %s cannot be bound as a scalar in the ON clause", mc.Name, def.Name)
		case len(sPath) != 1:
			report(sRef.Pos, "ON clause binds scalar column %q to nested source path %q", mc.Name, strings.Join(sPath, "."))
		case !strings.EqualFold(mc.Name, sPath[0]):
			report(sRef.Pos, "ON clause binds model column %q to differently-named source column %q; alias the source column to the model column name", mc.Name, sPath[0])
		case src != nil:
			ord, ok := src.Lookup(sPath[0])
			if !ok {
				report(sRef.Pos, "source has no column %q (source columns: %v)", sPath[0], src.Names())
				break
			}
			if st := src.Column(ord).Type; !typesCompatible(mc.DataType, st) {
				report(sRef.Pos, "ON clause binds model column %q (%s) to source column %q (%s): incompatible types",
					mc.Name, mc.DataType, sPath[0], st)
				break
			}
			fallthrough
		default:
			return append(out, Binding{Name: mc.Name, Pos: sRef.Pos})
		}
	case 2:
		tc, ok := def.Column(mPath[0])
		if !ok || tc.Content != core.ContentTable {
			report(mRef.Pos, "model %s has no nested table %q", def.Name, mPath[0])
			return out
		}
		i := slices.IndexFunc(tc.Table, func(c core.ColumnDef) bool { return strings.EqualFold(c.Name, mPath[1]) })
		switch {
		case i < 0:
			report(mRef.Pos, "unknown column %q in nested table %s of model %s", mPath[1], tc.Name, def.Name)
		case len(sPath) != 2:
			report(sRef.Pos, "ON clause binds nested column %s.%s to non-nested source path %q",
				tc.Name, tc.Table[i].Name, strings.Join(sPath, "."))
		case !strings.EqualFold(tc.Table[i].Name, sPath[1]):
			report(sRef.Pos, "ON clause binds nested column %q to differently-named source column %q", tc.Table[i].Name, sPath[1])
		default:
			nb := Binding{Name: tc.Table[i].Name, Pos: sRef.Pos}
			if t := slices.IndexFunc(out, func(b Binding) bool { return b.Nested != nil && b.Name == tc.Name }); t >= 0 {
				out[t].Nested = append(out[t].Nested, nb)
				return out
			}
			return append(out, Binding{Name: tc.Name, Nested: []Binding{nb}, Pos: mRef.Pos})
		}
	default:
		report(mRef.Pos, "model column path %q nests too deeply (at most table.column)", strings.Join(mPath, "."))
	}
	return out
}

// refPath splits a possibly-qualified reference into its dot components.
func refPath(c *sqlengine.ColumnRef) []string {
	var parts []string
	if c.Qualifier != "" {
		parts = strings.Split(c.Qualifier, ".")
	}
	return append(parts, c.Name)
}

// ExprPos is the position of e's first positioned node, preorder — a column
// reference or a function call; an IN or BETWEEN is located by its operand.
// The zero Pos means nothing in e is positioned.
func ExprPos(e sqlengine.Expr) lex.Pos {
	var pos lex.Pos
	sqlengine.Inspect(e, func(n sqlengine.Expr) bool {
		if pos.IsValid() {
			return false
		}
		switch x := n.(type) {
		case *sqlengine.ColumnRef:
			pos = x.Pos
		case *sqlengine.FuncCall:
			pos = x.Pos
		case *sqlengine.In:
			pos = ExprPos(x.X)
			return false
		case *sqlengine.Between:
			pos = ExprPos(x.X)
			return false
		case *sqlengine.Subquery, *sqlengine.Exists:
			return false
		}
		return true
	})
	return pos
}

// typesCompatible reports whether a model column of type m can bind a source
// column of type s in an ON clause. The numeric types coerce to one another;
// everything else must match exactly. Unknown source types skip the check.
func typesCompatible(m, s rowset.Type) bool {
	if s == rowset.TypeNull || m == s {
		return true
	}
	numeric := func(t rowset.Type) bool { return t == rowset.TypeLong || t == rowset.TypeDouble }
	return numeric(m) && numeric(s)
}

// RowsetSelect is a SELECT over one of the rowsets the provider exposes:
// FROM <model>.<accessor> — CONTENT (the model's content graph), COLUMNS (its
// column metadata), CASES (the training cases it consumed, tokenized) or PMML
// (its content as one XML document) — or FROM $SYSTEM.<name>, the OLE DB
// schema rowsets by which "a provider describes information about itself".
// Select holds every other clause; its From is empty.
type RowsetSelect struct {
	Model  string // empty for $SYSTEM
	Rowset string // upper-cased accessor or schema rowset name
	Select *sqlengine.SelectStmt
}

func (*RowsetSelect) dmxStmt() {}

// Name is the rowset as FROM names it: <model>.<accessor> or $SYSTEM.<name>.
func (r *RowsetSelect) Name() string {
	if r.Model == "" {
		return "$SYSTEM." + r.Rowset
	}
	return r.Model + "." + r.Rowset
}

// Accessors are the names FROM <model>.<accessor> accepts.
var Accessors = []string{"CONTENT", "COLUMNS", "CASES", "PMML"}

// DeleteFrom is DELETE FROM <model>: reset (empty) the mining model.
type DeleteFrom struct {
	Model string
}

func (*DeleteFrom) dmxStmt() {}

// DropModel is DROP MINING MODEL <name>.
type DropModel struct {
	Name string
}

func (*DropModel) dmxStmt() {}

// Explain is EXPLAIN [ANALYZE] <statement>: the provider's plan surface.
// Stmt is the parsed inner statement and Command its text. Bare EXPLAIN
// returns the operator plan without running the statement; EXPLAIN ANALYZE
// executes it and reports measured per-operator wall time and row counts.
type Explain struct {
	Analyze bool
	Stmt    Statement
	Command string
}

func (*Explain) dmxStmt() {}

// Prepare is PREPARE <name> AS <statement>: register the inner statement —
// DMX, SQL, or SHAPE, possibly containing '?' or '@name' placeholders — under a
// handle for later EXECUTE. Stmt is the parsed inner statement, which the
// provider compiles and type-checks at prepare time; Command is its text,
// which a handle gone stale re-parses against the live catalog to replan.
type Prepare struct {
	Name    string
	Stmt    Statement
	Command string
	NamePos lex.Pos
}

func (*Prepare) dmxStmt() {}

// ExecutePrepared is EXECUTE <name> [(arg, ...)]: run a prepared statement
// with literal argument values bound to its placeholders.
type ExecutePrepared struct {
	Name    string
	Args    []rowset.Value
	NamePos lex.Pos
}

func (*ExecutePrepared) dmxStmt() {}

// Deallocate is DEALLOCATE [PREPARE] <name>: drop a prepared statement.
type Deallocate struct {
	Name string
}

func (*Deallocate) dmxStmt() {}

// Prediction function names recognized in PredictionSelect items. They are
// parsed as ordinary sqlengine.FuncCall nodes; the provider's projection
// evaluator gives them meaning.
const (
	FuncPredict            = "PREDICT"
	FuncPredictProbability = "PREDICTPROBABILITY"
	FuncPredictSupport     = "PREDICTSUPPORT"
	FuncPredictStdev       = "PREDICTSTDEV"
	FuncPredictVariance    = "PREDICTVARIANCE"
	FuncPredictHistogram   = "PREDICTHISTOGRAM"
	FuncTopCount           = "TOPCOUNT"
	FuncCluster            = "CLUSTER"
	FuncClusterProbability = "CLUSTERPROBABILITY"
	FuncPredictAssociation = "PREDICTASSOCIATION"
	FuncRangeMid           = "RANGEMID"
	FuncRangeMin           = "RANGEMIN"
	FuncRangeMax           = "RANGEMAX"
)

// IsPredictionFunc reports whether name (upper-cased) is a DMX prediction
// function.
func IsPredictionFunc(name string) bool {
	switch name {
	case FuncPredict, FuncPredictProbability, FuncPredictSupport,
		FuncPredictStdev, FuncPredictVariance, FuncPredictHistogram,
		FuncTopCount, FuncCluster, FuncClusterProbability, FuncPredictAssociation,
		FuncRangeMid, FuncRangeMin, FuncRangeMax:
		return true
	}
	return false
}
