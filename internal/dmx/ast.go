// Package dmx implements the Data Mining Extensions language proposed by the
// paper: the CREATE MINING MODEL / INSERT INTO / PREDICTION JOIN / DELETE
// FROM / DROP MINING MODEL statement family, including the SHAPE-based
// hierarchical sources and the prediction functions (Predict,
// PredictProbability, PredictHistogram, TopCount, Cluster, ...), and SELECTs
// over the rowsets the provider exposes (a model's content, columns, cases and
// PMML; the $SYSTEM schema rowsets). A SELECT's clauses are the SQL engine's:
// this package parses only what DMX adds between them, its FROM. It parses
// command text into ASTs executed by the provider package.
package dmx

import (
	"repro/internal/core"
	"repro/internal/lex"
	"repro/internal/rowset"
	"repro/internal/shape"
	"repro/internal/sqlengine"
)

// Statement is any parsed DMX statement.
type Statement interface{ dmxStmt() }

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
// Stmt is the parsed inner DMX statement, or nil when the inner command is
// handled outside DMX (plain SQL, or a SHAPE source) — Command always carries
// the raw inner text for those dispatchers. Bare EXPLAIN returns the operator
// plan without running the statement; EXPLAIN ANALYZE executes it and reports
// measured per-operator wall time and row counts.
type Explain struct {
	Analyze bool
	Stmt    Statement
	Command string
}

func (*Explain) dmxStmt() {}

// Prepare is PREPARE <name> AS <statement>: register the inner command — DMX,
// SQL, or SHAPE, possibly containing '?' or '@name' placeholders — under a
// handle for later EXECUTE. The inner command is carried as raw text; the
// provider compiles and type-checks it at prepare time.
type Prepare struct {
	Name    string
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
