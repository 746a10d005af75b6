// Package sqlengine implements the SQL subset the provider depends on: the
// SELECT queries embedded in SHAPE statements and prediction joins, plus the
// DDL/DML needed to stage training data (CREATE TABLE, INSERT, UPDATE,
// DELETE, DROP). It parses to an AST, resolves names, and executes against
// the storage engine, producing rowsets.
//
// Supported SELECT shape:
//
//	SELECT [DISTINCT] [TOP n] items
//	FROM t [alias] [ {INNER|LEFT} JOIN u [alias] ON cond ]* [ , v ]*
//	[WHERE cond] [GROUP BY exprs] [HAVING cond]
//	[ORDER BY exprs [ASC|DESC]]
//
// with aggregates COUNT/SUM/AVG/MIN/MAX, scalar functions, and the usual
// operator set including LIKE, IN, BETWEEN, and IS [NOT] NULL.
package sqlengine

import (
	"fmt"
	"strings"

	"repro/internal/lex"
	"repro/internal/rowset"
)

// Expr is a SQL expression tree node.
type Expr interface {
	fmt.Stringer
	expr()
}

// ColumnRef names a column, optionally qualified: [Qualifier.]Name.
type ColumnRef struct {
	Qualifier string
	Name      string
	// Pos is the source position of the reference's first token; the zero
	// value means "unknown" (synthesized nodes). Used by diagnostics only —
	// execution never depends on it.
	Pos lex.Pos
}

func (*ColumnRef) expr() {}

func (c *ColumnRef) String() string {
	if c.Qualifier != "" {
		return fmt.Sprintf("[%s].[%s]", c.Qualifier, c.Name)
	}
	return "[" + c.Name + "]"
}

// Full returns the qualified name used for resolution.
func (c *ColumnRef) Full() string {
	if c.Qualifier != "" {
		return c.Qualifier + "." + c.Name
	}
	return c.Name
}

// Literal is a constant value (number, string, boolean, or NULL).
type Literal struct {
	Val rowset.Value
}

func (*Literal) expr() {}

func (l *Literal) String() string {
	if s, ok := l.Val.(string); ok {
		return "'" + strings.ReplaceAll(s, "'", "''") + "'"
	}
	return rowset.FormatValue(l.Val)
}

// BinaryOp enumerates binary operators.
type BinaryOp int

// Binary operators in precedence groups (low to high): OR; AND; comparisons;
// additive; multiplicative.
const (
	OpOr BinaryOp = iota
	OpAnd
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpLike
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpConcat
)

var binOpNames = map[BinaryOp]string{
	OpOr: "OR", OpAnd: "AND", OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=",
	OpGt: ">", OpGe: ">=", OpLike: "LIKE", OpAdd: "+", OpSub: "-",
	OpMul: "*", OpDiv: "/", OpConcat: "||",
}

// Binary applies Op to L and R.
type Binary struct {
	Op   BinaryOp
	L, R Expr
}

func (*Binary) expr() {}

func (b *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, binOpNames[b.Op], b.R)
}

// Unary is NOT x or -x.
type Unary struct {
	Op string // "NOT" or "-"
	X  Expr
}

func (*Unary) expr() {}

func (u *Unary) String() string { return fmt.Sprintf("(%s %s)", u.Op, u.X) }

// IsNull tests x IS [NOT] NULL.
type IsNull struct {
	X      Expr
	Negate bool
}

func (*IsNull) expr() {}

func (n *IsNull) String() string {
	if n.Negate {
		return fmt.Sprintf("(%s IS NOT NULL)", n.X)
	}
	return fmt.Sprintf("(%s IS NULL)", n.X)
}

// In tests x [NOT] IN (list) or x [NOT] IN (SELECT ...).
type In struct {
	X      Expr
	List   []Expr
	Negate bool
	// Subquery, when set, supplies the list at execution time (the engine
	// resolves it before evaluation).
	Subquery *Subquery
}

func (*In) expr() {}

func (in *In) String() string {
	op := "IN"
	if in.Negate {
		op = "NOT IN"
	}
	if in.Subquery != nil {
		return fmt.Sprintf("(%s %s (<subquery>))", in.X, op)
	}
	items := make([]string, len(in.List))
	for i, e := range in.List {
		items[i] = e.String()
	}
	return fmt.Sprintf("(%s %s (%s))", in.X, op, strings.Join(items, ", "))
}

// Between tests x [NOT] BETWEEN lo AND hi.
type Between struct {
	X, Lo, Hi Expr
	Negate    bool
}

func (*Between) expr() {}

func (b *Between) String() string {
	op := "BETWEEN"
	if b.Negate {
		op = "NOT BETWEEN"
	}
	return fmt.Sprintf("(%s %s %s AND %s)", b.X, op, b.Lo, b.Hi)
}

// FuncCall is a scalar or aggregate function call. Star marks COUNT(*).
type FuncCall struct {
	Name     string
	Args     []Expr
	Star     bool
	Distinct bool // COUNT(DISTINCT x)
	// Pos is the source position of the function name token; zero when the
	// node was synthesized rather than parsed.
	Pos lex.Pos
}

func (*FuncCall) expr() {}

func (f *FuncCall) String() string {
	if f.Star {
		return f.Name + "(*)"
	}
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.String()
	}
	d := ""
	if f.Distinct {
		d = "DISTINCT "
	}
	return fmt.Sprintf("%s(%s%s)", f.Name, d, strings.Join(args, ", "))
}

// SelectItem is one projection item: an expression with an optional alias, or
// a star (optionally qualified: t.*).
type SelectItem struct {
	Expr      Expr
	Alias     string
	Star      bool
	Qualifier string // for t.*
}

func (s SelectItem) String() string {
	if s.Star {
		if s.Qualifier != "" {
			return s.Qualifier + ".*"
		}
		return "*"
	}
	if s.Alias != "" {
		return fmt.Sprintf("%s AS [%s]", s.Expr, s.Alias)
	}
	return s.Expr.String()
}

// JoinKind enumerates join types.
type JoinKind int

// Join kinds. Cross joins come from comma-separated FROM lists.
const (
	JoinInner JoinKind = iota
	JoinLeft
	JoinCross
)

// TableRef is one FROM-clause source with how it joins to the sources before
// it (the first entry's Kind/On are ignored).
type TableRef struct {
	Name  string
	Alias string
	Kind  JoinKind
	On    Expr
}

// AliasOrName returns the name the source is referenced by.
func (t TableRef) AliasOrName() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Statement is any executable SQL statement.
type Statement interface{ stmt() }

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct bool
	Top      *int // nil = no TOP clause; TOP 0 is an empty result
	Items    []SelectItem
	From     []TableRef // empty means a FROM-less scalar select
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
}

func (*SelectStmt) stmt() {}

// CreateTableStmt is CREATE TABLE name (col type, ...).
type CreateTableStmt struct {
	Name    string
	Columns []rowset.Column
}

func (*CreateTableStmt) stmt() {}

// InsertStmt is INSERT INTO name [(cols)] VALUES (...),(...) or
// INSERT INTO name [(cols)] SELECT ...
type InsertStmt struct {
	Table   string
	Columns []string
	Rows    [][]Expr
	Query   *SelectStmt
}

func (*InsertStmt) stmt() {}

// DeleteStmt is DELETE FROM name [WHERE cond].
type DeleteStmt struct {
	Table string
	Where Expr
}

func (*DeleteStmt) stmt() {}

// UpdateStmt is UPDATE name SET col=expr[, ...] [WHERE cond].
type UpdateStmt struct {
	Table string
	Set   []SetClause
	Where Expr
}

// SetClause is one col=expr assignment.
type SetClause struct {
	Column string
	Value  Expr
}

func (*UpdateStmt) stmt() {}

// DropTableStmt is DROP TABLE name.
type DropTableStmt struct {
	Name string
}

func (*DropTableStmt) stmt() {}
