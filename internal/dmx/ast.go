// Package dmx implements the Data Mining Extensions language proposed by the
// paper: the CREATE MINING MODEL / INSERT INTO / PREDICTION JOIN / SELECT
// FROM <model>.CONTENT / DELETE FROM / DROP MINING MODEL statement family,
// including the SHAPE-based hierarchical sources and the prediction
// functions (Predict, PredictProbability, PredictHistogram, TopCount,
// Cluster, ...). It parses command text into ASTs executed by the provider
// package.
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
// (<source>) AS <alias> [ON <cond>] [WHERE <cond>].
type PredictionSelect struct {
	Items   []sqlengine.SelectItem
	Model   string
	Natural bool
	Source  Source
	Alias   string
	// On is a conjunction of equality pairs binding model columns to source
	// columns; nil for NATURAL joins.
	On sqlengine.Expr
	// Where filters output rows (evaluated over both model predictions and
	// source columns).
	Where sqlengine.Expr
	// OrderBy sorts output rows; expressions may use prediction functions.
	OrderBy []sqlengine.OrderItem
	// Top limits the result (SELECT TOP n ...), applied after OrderBy; nil
	// when the statement has no TOP clause.
	Top *int
	// ModelPos locates the model name token.
	ModelPos lex.Pos
}

func (*PredictionSelect) dmxStmt() {}

// ContentSelect is SELECT * FROM <model>.CONTENT — model browsing.
type ContentSelect struct {
	Model string
}

func (*ContentSelect) dmxStmt() {}

// ColumnsSelect is SELECT * FROM <model>.COLUMNS: the model's column
// metadata as a rowset (a convenience beyond the paper's CONTENT).
type ColumnsSelect struct {
	Model string
}

func (*ColumnsSelect) dmxStmt() {}

// CasesSelect is SELECT * FROM <model>.CASES: the training cases the model
// has consumed, rendered in tokenized attribute/value form — the OLE DB DM
// specification's case-browsing accessor.
type CasesSelect struct {
	Model string
}

func (*CasesSelect) dmxStmt() {}

// PMMLSelect is SELECT * FROM <model>.PMML: the model's content graph as a
// single-cell PMML-inspired XML document — the paper's Section 4 nod to PMML
// as "an open persistence format", exposed through the command surface so
// remote consumers can extract models too.
type PMMLSelect struct {
	Model string
}

func (*PMMLSelect) dmxStmt() {}

// SchemaRowsetSelect is SELECT * FROM $SYSTEM.<rowset>: the OLE DB schema
// rowsets by which "a provider describes information about itself".
type SchemaRowsetSelect struct {
	Rowset string
}

func (*SchemaRowsetSelect) dmxStmt() {}

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
