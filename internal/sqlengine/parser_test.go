package sqlengine

import (
	"fmt"
	"testing"

	"repro/internal/lex"
	"repro/internal/rowset"
)

func parseSelect(t *testing.T, src string) *SelectStmt {
	t.Helper()
	st, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want *SelectStmt", src, st)
	}
	return sel
}

func TestParseSelectBasic(t *testing.T) {
	sel := parseSelect(t, "SELECT [Customer ID], Gender, Age FROM Customers ORDER BY [Customer ID]")
	if len(sel.Items) != 3 {
		t.Fatalf("items = %d", len(sel.Items))
	}
	cr := sel.Items[0].Expr.(*ColumnRef)
	if cr.Name != "Customer ID" {
		t.Errorf("item 0 = %q", cr.Name)
	}
	if len(sel.From) != 1 || sel.From[0].Name != "Customers" {
		t.Errorf("from = %+v", sel.From)
	}
	if len(sel.OrderBy) != 1 || sel.OrderBy[0].Desc {
		t.Errorf("order = %+v", sel.OrderBy)
	}
}

func TestParseSelectStarAndQualifiedStar(t *testing.T) {
	sel := parseSelect(t, "SELECT * FROM t")
	if !sel.Items[0].Star || sel.Items[0].Qualifier != "" {
		t.Errorf("star item = %+v", sel.Items[0])
	}
	sel = parseSelect(t, "SELECT c.*, s.Amount FROM c JOIN s ON c.id = s.id")
	if !sel.Items[0].Star || sel.Items[0].Qualifier != "c" {
		t.Errorf("qualified star = %+v", sel.Items[0])
	}
	cr := sel.Items[1].Expr.(*ColumnRef)
	if cr.Qualifier != "s" || cr.Name != "Amount" {
		t.Errorf("qualified ref = %+v", cr)
	}
}

func TestParseAliases(t *testing.T) {
	sel := parseSelect(t, "SELECT Age AS [Years], Gender Sex FROM Customers c")
	if sel.Items[0].Alias != "Years" || sel.Items[1].Alias != "Sex" {
		t.Errorf("aliases = %q %q", sel.Items[0].Alias, sel.Items[1].Alias)
	}
	if sel.From[0].Alias != "c" {
		t.Errorf("table alias = %q", sel.From[0].Alias)
	}
}

func TestParseJoins(t *testing.T) {
	sel := parseSelect(t, `SELECT * FROM a LEFT JOIN b ON a.x = b.y INNER JOIN c ON c.z = a.x, d`)
	if len(sel.From) != 4 {
		t.Fatalf("from = %d refs", len(sel.From))
	}
	if sel.From[1].Kind != JoinLeft || sel.From[2].Kind != JoinInner || sel.From[3].Kind != JoinCross {
		t.Errorf("kinds = %v %v %v", sel.From[1].Kind, sel.From[2].Kind, sel.From[3].Kind)
	}
	if sel.From[1].On == nil || sel.From[2].On == nil {
		t.Error("ON clauses missing")
	}
}

func TestParseWhereGroupHaving(t *testing.T) {
	sel := parseSelect(t, `SELECT Gender, COUNT(*) FROM c WHERE Age > 30 AND Gender <> 'M'
		GROUP BY Gender HAVING COUNT(*) >= 2 ORDER BY 2 DESC`)
	if sel.Where == nil || len(sel.GroupBy) != 1 || sel.Having == nil {
		t.Fatalf("clauses missing: %+v", sel)
	}
	if !sel.OrderBy[0].Desc {
		t.Error("DESC not parsed")
	}
	f := sel.Items[1].Expr.(*FuncCall)
	if f.Name != "COUNT" || !f.Star {
		t.Errorf("COUNT(*) = %+v", f)
	}
}

func TestParseDistinctTop(t *testing.T) {
	sel := parseSelect(t, "SELECT DISTINCT TOP 5 Gender FROM c")
	if !sel.Distinct || sel.Top == nil || *sel.Top != 5 {
		t.Errorf("distinct=%v top=%v", sel.Distinct, sel.Top)
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	e := mustParseExpr("1 + 2 * 3")
	b := e.(*Binary)
	if b.Op != OpAdd {
		t.Fatalf("top op = %v", b.Op)
	}
	if b.R.(*Binary).Op != OpMul {
		t.Error("* must bind tighter than +")
	}

	e = mustParseExpr("a = 1 OR b = 2 AND c = 3")
	if e.(*Binary).Op != OpOr {
		t.Error("OR must be top-level")
	}
	e = mustParseExpr("NOT a = 1")
	if e.(*Unary).Op != "NOT" {
		t.Error("NOT parse failed")
	}
	e = mustParseExpr("(1 + 2) * 3")
	if e.(*Binary).Op != OpMul {
		t.Error("parens not honored")
	}
}

func TestParseSpecialPredicates(t *testing.T) {
	if _, ok := mustParseExpr("x IS NULL").(*IsNull); !ok {
		t.Error("IS NULL")
	}
	n := mustParseExpr("x IS NOT NULL").(*IsNull)
	if !n.Negate {
		t.Error("IS NOT NULL")
	}
	in := mustParseExpr("x IN (1, 2, 3)").(*In)
	if len(in.List) != 3 || in.Negate {
		t.Errorf("IN = %+v", in)
	}
	nin := mustParseExpr("x NOT IN (1)").(*In)
	if !nin.Negate {
		t.Error("NOT IN")
	}
	bt := mustParseExpr("x BETWEEN 1 AND 10").(*Between)
	if bt.Negate {
		t.Error("BETWEEN")
	}
	nb := mustParseExpr("x NOT BETWEEN 1 AND 10").(*Between)
	if !nb.Negate {
		t.Error("NOT BETWEEN")
	}
	lk := mustParseExpr("x LIKE 'a%'").(*Binary)
	if lk.Op != OpLike {
		t.Error("LIKE")
	}
}

func TestParseLiterals(t *testing.T) {
	if v := mustParseExpr("42").(*Literal).Val; v != int64(42) {
		t.Errorf("int literal = %#v", v)
	}
	if v := mustParseExpr("4.5").(*Literal).Val; v != 4.5 {
		t.Errorf("float literal = %#v", v)
	}
	if v := mustParseExpr("-7").(*Literal).Val; v != int64(-7) {
		t.Errorf("negative literal = %#v", v)
	}
	if v := mustParseExpr("'it''s'").(*Literal).Val; v != "it's" {
		t.Errorf("string literal = %#v", v)
	}
	if v := mustParseExpr("NULL").(*Literal).Val; v != nil {
		t.Errorf("NULL literal = %#v", v)
	}
	if v := mustParseExpr("TRUE").(*Literal).Val; v != true {
		t.Errorf("TRUE literal = %#v", v)
	}
}

func TestParseDottedRef(t *testing.T) {
	cr := mustParseExpr("[Age Prediction].[Product Purchases].[Product Name]").(*ColumnRef)
	if cr.Qualifier != "Age Prediction.Product Purchases" || cr.Name != "Product Name" {
		t.Errorf("dotted ref = %+v", cr)
	}
}

func TestParseCreateTable(t *testing.T) {
	st, err := Parse("CREATE TABLE Customers ([Customer ID] LONG, Gender TEXT, Age DOUBLE, Active BOOL)")
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*CreateTableStmt)
	if ct.Name != "Customers" || len(ct.Columns) != 4 {
		t.Fatalf("create = %+v", ct)
	}
	if ct.Columns[0].Type != rowset.TypeLong || ct.Columns[2].Type != rowset.TypeDouble {
		t.Errorf("types = %+v", ct.Columns)
	}
	if _, err := Parse("CREATE TABLE t (x BLOB)"); err == nil {
		t.Error("unknown type must error")
	}
}

func TestParseInsert(t *testing.T) {
	st, err := Parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
	if err != nil {
		t.Fatal(err)
	}
	ins := st.(*InsertStmt)
	if len(ins.Rows) != 2 || len(ins.Columns) != 2 {
		t.Fatalf("insert = %+v", ins)
	}
	st, err = Parse("INSERT INTO t SELECT * FROM u")
	if err != nil {
		t.Fatal(err)
	}
	if st.(*InsertStmt).Query == nil {
		t.Error("insert-select missing query")
	}
	if _, err := Parse("INSERT INTO t SET x = 1"); err == nil {
		t.Error("bad insert must error")
	}
}

func TestParseDeleteUpdateDrop(t *testing.T) {
	st, err := Parse("DELETE FROM t WHERE a = 1")
	if err != nil {
		t.Fatal(err)
	}
	if st.(*DeleteStmt).Where == nil {
		t.Error("where missing")
	}
	st, err = Parse("UPDATE t SET a = 1, b = b + 1 WHERE c IS NULL")
	if err != nil {
		t.Fatal(err)
	}
	upd := st.(*UpdateStmt)
	if len(upd.Set) != 2 || upd.Where == nil {
		t.Errorf("update = %+v", upd)
	}
	st, err = Parse("DROP TABLE t")
	if err != nil {
		t.Fatal(err)
	}
	if st.(*DropTableStmt).Name != "t" {
		t.Error("drop name")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC 1",
		"SELECT FROM t",
		"SELECT 1 FROM",
		"SELECT 1 extra_stuff_without_from FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP BY",
		"SELECT TOP x a FROM t",
		"SELECT a FROM t JOIN u",
		"INSERT INTO",
		"CREATE TABLE t",
		"SELECT a FROM t; SELECT b FROM u", // two statements in one Parse
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseCountDistinct(t *testing.T) {
	sel := parseSelect(t, "SELECT COUNT(DISTINCT Gender) FROM c")
	f := sel.Items[0].Expr.(*FuncCall)
	if !f.Distinct || len(f.Args) != 1 {
		t.Errorf("COUNT(DISTINCT) = %+v", f)
	}
}

func TestExprStringRoundTrip(t *testing.T) {
	// Rendering an expression and reparsing it yields the same rendering.
	srcs := []string{
		"a = 1 AND b < 2.5",
		"x IS NOT NULL OR y IN (1, 2)",
		"[col name] LIKE 'a%'",
		"NOT (a BETWEEN 1 AND 2)",
		"UPPER(name) = 'X'",
	}
	for _, src := range srcs {
		e1 := mustParseExpr(src)
		e2 := mustParseExpr(e1.String())
		if e1.String() != e2.String() {
			t.Errorf("round trip %q: %q != %q", src, e1.String(), e2.String())
		}
	}
}

// mustParseExpr builds an expression from source text, panicking on parse
// failure; shared by the parser and eval tests.
func mustParseExpr(src string) Expr {
	s := lex.NewScanner(src)
	e, err := ParseExpr(s)
	if err != nil {
		panic(fmt.Sprintf("mustParseExpr(%q): %v", src, err))
	}
	return e
}
