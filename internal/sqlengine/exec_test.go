package sqlengine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/rowset"
	"repro/internal/storage"
)

// newTestEngine builds the paper's running schema: Customers, Sales (product
// purchases), and Cars (car ownership) — the 3-table example of Section 3.1.
func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine(storage.NewDatabase())
	stmts := []string{
		"CREATE TABLE Customers ([Customer ID] LONG, Gender TEXT, [Hair Color] TEXT, Age DOUBLE)",
		"CREATE TABLE Sales (CustID LONG, [Product Name] TEXT, Quantity DOUBLE, [Product Type] TEXT)",
		"CREATE TABLE Cars (CustID LONG, Car TEXT, Probability DOUBLE)",
		"INSERT INTO Customers VALUES (1, 'Male', 'Black', 35), (2, 'Female', 'Brown', 28), (3, 'Male', NULL, 52)",
		`INSERT INTO Sales VALUES
			(1, 'TV', 1, 'Electronic'), (1, 'VCR', 1, 'Electronic'),
			(1, 'Ham', 2, 'Food'), (1, 'Beer', 6, 'Beverage'),
			(2, 'TV', 1, 'Electronic'), (3, 'Beer', 12, 'Beverage')`,
		"INSERT INTO Cars VALUES (1, 'Truck', 1.0), (1, 'Van', 0.5), (2, 'Sedan', 1.0)",
	}
	for _, s := range stmts {
		if _, err := e.Exec(s); err != nil {
			t.Fatalf("setup %q: %v", s, err)
		}
	}
	return e
}

func mustQuery(t *testing.T, e *Engine, sql string) *rowset.Rowset {
	t.Helper()
	rs, err := e.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return rs
}

func TestSelectStar(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, "SELECT * FROM Customers")
	if rs.Len() != 3 || rs.Schema().Len() != 4 {
		t.Fatalf("got %dx%d", rs.Len(), rs.Schema().Len())
	}
	// Star output uses bare names, not qualified ones.
	if _, ok := rs.Schema().Lookup("Gender"); !ok {
		t.Errorf("schema = %v", rs.Schema().Names())
	}
}

func TestSelectWhereOrder(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, "SELECT [Customer ID], Age FROM Customers WHERE Age > 30 ORDER BY Age DESC")
	if rs.Len() != 2 {
		t.Fatalf("rows = %d", rs.Len())
	}
	if rs.Row(0)[1] != 52.0 || rs.Row(1)[1] != 35.0 {
		t.Errorf("order wrong: %v", rs.Rows())
	}
}

func TestSelectExpressionProjection(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, "SELECT [Customer ID], Age * 2 AS DoubleAge, UPPER(Gender) AS G FROM Customers ORDER BY [Customer ID]")
	if rs.Row(0)[1] != 70.0 || rs.Row(0)[2] != "MALE" {
		t.Errorf("row 0 = %v", rs.Row(0))
	}
	if _, ok := rs.Schema().Lookup("DoubleAge"); !ok {
		t.Errorf("alias missing: %v", rs.Schema().Names())
	}
}

func TestSelectOrderByAlias(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, "SELECT [Customer ID], Age + 0 AS A FROM Customers ORDER BY A")
	if rs.Row(0)[0] != int64(2) { // youngest first
		t.Errorf("order by alias wrong: %v", rs.Rows())
	}
}

func TestInnerJoinHashPath(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, `SELECT c.[Customer ID], s.[Product Name]
		FROM Customers c JOIN Sales s ON c.[Customer ID] = s.CustID
		ORDER BY c.[Customer ID], s.[Product Name]`)
	if rs.Len() != 6 {
		t.Fatalf("join rows = %d want 6", rs.Len())
	}
	if rs.Row(0)[1] != "Beer" || rs.Row(5)[1] != "Beer" {
		t.Errorf("join content: %v", rs.Rows())
	}
}

func TestPaperTwelveRowJoin(t *testing.T) {
	// Section 3.1: joining the 3 tables for customer 1 yields
	// 4 purchases x 2 cars = 8 rows for customer 1, plus 1x1 for customer 2;
	// the paper's example (4 purchases, 3 extra attrs) quotes 12 rows for a
	// single customer with 4 products and... the flattened join of all of
	// customer 1's info. Here: customer 1 contributes 4*2 = 8 rows.
	e := newTestEngine(t)
	rs := mustQuery(t, e, `SELECT c.[Customer ID]
		FROM Customers c
		JOIN Sales s ON c.[Customer ID] = s.CustID
		JOIN Cars k ON k.CustID = c.[Customer ID]
		WHERE c.[Customer ID] = 1`)
	if rs.Len() != 8 {
		t.Errorf("flattened join = %d rows, want 8", rs.Len())
	}
}

func TestLeftJoin(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, `SELECT c.[Customer ID], k.Car FROM Customers c
		LEFT JOIN Cars k ON c.[Customer ID] = k.CustID ORDER BY c.[Customer ID]`)
	// Customer 3 has no car: NULL row preserved.
	if rs.Len() != 4 {
		t.Fatalf("left join rows = %d want 4", rs.Len())
	}
	last := rs.Row(3)
	if last[0] != int64(3) || last[1] != nil {
		t.Errorf("unmatched row = %v", last)
	}
}

func TestCrossJoin(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, "SELECT c.[Customer ID], k.Car FROM Customers c, Cars k")
	if rs.Len() != 9 {
		t.Errorf("cross join = %d want 9", rs.Len())
	}
}

func TestNonEquiJoinFallback(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, `SELECT c.[Customer ID], k.CustID FROM Customers c
		JOIN Cars k ON c.[Customer ID] < k.CustID`)
	// c1 < k2(x1): custID 1 < 2 → 1 row (cars of cust 2: Sedan) ... compute:
	// cars rows CustID: 1,1,2. c1: k=2 → 1 match. c2: none. c3: none.
	if rs.Len() != 1 {
		t.Errorf("theta join = %d rows: %v", rs.Len(), rs.Rows())
	}
}

// TestLargeLongKeysStayDistinct: past 2^53 float64 merges integers, so
// 9007199254740992 and 9007199254740993 would share a key through float64.
// The hash join, GROUP BY and DISTINCT must tell them apart as the loop join
// and the WHERE filter do, while 1 and 1.0 still group together.
func TestLargeLongKeysStayDistinct(t *testing.T) {
	e := NewEngine(storage.NewDatabase())
	for _, s := range []string{
		"CREATE TABLE A (k LONG, v TEXT)",
		"CREATE TABLE B (k LONG, w TEXT)",
		"CREATE TABLE F (x DOUBLE)",
		"INSERT INTO A VALUES (9007199254740992, 'a0'), (9007199254740993, 'a1')",
		"INSERT INTO B VALUES (9007199254740993, 'b1')",
		"INSERT INTO F VALUES (9007199254740992), (1)",
	} {
		mustQuery(t, e, s)
	}
	render := func(rs *rowset.Rowset) string {
		var rows []string
		for _, r := range rs.Rows() {
			vals := make([]string, len(r))
			for i, v := range r {
				vals[i] = rowset.FormatValue(v)
			}
			rows = append(rows, strings.Join(vals, " "))
		}
		return strings.Join(rows, "; ")
	}
	for _, c := range []struct{ q, want string }{
		{"SELECT A.v, B.w FROM A JOIN B ON A.k = B.k", "a1 b1"},
		{"SELECT A.v, B.w FROM B JOIN A ON B.k = A.k", "a1 b1"},
		{"SELECT A.v, B.w FROM A JOIN B ON A.k = B.k AND 1 = 1", "a1 b1"},
		{"SELECT A.v, B.w FROM A LEFT JOIN B ON A.k = B.k", "a0 NULL; a1 b1"},
		{"SELECT v FROM A WHERE k = 9007199254740993", "a1"},
		{"SELECT v, COUNT(*) FROM A GROUP BY k", "a0 1; a1 1"},
		{"SELECT DISTINCT k FROM A", "9007199254740992; 9007199254740993"},
		{"SELECT COUNT(*) FROM F GROUP BY IIF(x = 1, x, 1)", "2"}, // 1.0 and 1
		// A LONG meets a DOUBLE by value inside ±2^53 only.
		{"SELECT A.v FROM A JOIN F ON A.k = F.x", "a0"},
	} {
		if got := render(mustQuery(t, e, c.q)); got != c.want {
			t.Errorf("%s = %q, want %q", c.q, got, c.want)
		}
	}
}

func TestGroupByAggregates(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, `SELECT Gender, COUNT(*) AS n, AVG(Age) AS avg_age, MIN(Age) AS lo, MAX(Age) AS hi
		FROM Customers GROUP BY Gender ORDER BY Gender`)
	if rs.Len() != 2 {
		t.Fatalf("groups = %d", rs.Len())
	}
	f := rs.Row(0) // Female
	m := rs.Row(1) // Male
	if f[0] != "Female" || f[1] != int64(1) || f[2] != 28.0 {
		t.Errorf("female group = %v", f)
	}
	if m[1] != int64(2) || m[2] != 43.5 || m[3] != 35.0 || m[4] != 52.0 {
		t.Errorf("male group = %v", m)
	}
}

func TestAggregateNoGroupBy(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, "SELECT COUNT(*), SUM(Quantity), COUNT(DISTINCT [Product Name]) FROM Sales")
	r := rs.Row(0)
	if r[0] != int64(6) || r[1] != 23.0 || r[2] != int64(4) {
		t.Errorf("aggregates = %v", r)
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, "SELECT COUNT(*), SUM(Age) FROM Customers WHERE Age > 1000")
	r := rs.Row(0)
	if r[0] != int64(0) || r[1] != nil {
		t.Errorf("empty aggregates = %v", r)
	}
}

func TestHaving(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, `SELECT CustID, COUNT(*) AS n FROM Sales GROUP BY CustID HAVING COUNT(*) > 1 ORDER BY CustID`)
	if rs.Len() != 1 || rs.Row(0)[0] != int64(1) || rs.Row(0)[1] != int64(4) {
		t.Errorf("having = %v", rs.Rows())
	}
}

func TestCountNullSkipped(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, "SELECT COUNT([Hair Color]) FROM Customers")
	if rs.Row(0)[0] != int64(2) {
		t.Errorf("COUNT skips NULL: %v", rs.Row(0))
	}
}

func TestDistinctAndTop(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, "SELECT DISTINCT [Product Type] FROM Sales ORDER BY [Product Type]")
	if rs.Len() != 3 {
		t.Errorf("distinct = %v", rs.Rows())
	}
	rs = mustQuery(t, e, "SELECT TOP 2 [Customer ID] FROM Customers ORDER BY Age DESC")
	if rs.Len() != 2 || rs.Row(0)[0] != int64(3) {
		t.Errorf("top = %v", rs.Rows())
	}
}

func TestWherePredicates(t *testing.T) {
	e := newTestEngine(t)
	cases := []struct {
		sql  string
		want int
	}{
		{"SELECT * FROM Customers WHERE [Hair Color] IS NULL", 1},
		{"SELECT * FROM Customers WHERE [Hair Color] IS NOT NULL", 2},
		{"SELECT * FROM Customers WHERE Gender IN ('Male')", 2},
		{"SELECT * FROM Customers WHERE Gender NOT IN ('Male')", 1},
		{"SELECT * FROM Customers WHERE Age BETWEEN 30 AND 40", 1},
		{"SELECT * FROM Customers WHERE Age NOT BETWEEN 30 AND 40", 2},
		{"SELECT * FROM Sales WHERE [Product Name] LIKE 'B%'", 2},
		{"SELECT * FROM Sales WHERE [Product Name] LIKE '_V%'", 2},
		{"SELECT * FROM Sales WHERE [Product Name] NOT LIKE 'B%'", 4},
		{"SELECT * FROM Customers WHERE NOT (Age > 30)", 1},
	}
	for _, c := range cases {
		rs := mustQuery(t, e, c.sql)
		if rs.Len() != c.want {
			t.Errorf("%s: got %d rows, want %d", c.sql, rs.Len(), c.want)
		}
	}
}

func TestNullComparisonFiltersOut(t *testing.T) {
	e := newTestEngine(t)
	// NULL = NULL is NULL, which is not true, so customer 3 is excluded.
	rs := mustQuery(t, e, "SELECT * FROM Customers WHERE [Hair Color] = [Hair Color]")
	if rs.Len() != 2 {
		t.Errorf("NULL equality rows = %d want 2", rs.Len())
	}
}

func TestFromLessSelect(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, "SELECT 1 + 2 AS three, 'x' AS s")
	if rs.Len() != 1 || rs.Row(0)[0] != int64(3) || rs.Row(0)[1] != "x" {
		t.Errorf("scalar select = %v", rs.Rows())
	}
}

func TestInsertSelect(t *testing.T) {
	e := newTestEngine(t)
	mustQuery(t, e, "CREATE TABLE Adults ([Customer ID] LONG, Age DOUBLE)")
	rs := mustQuery(t, e, "INSERT INTO Adults SELECT [Customer ID], Age FROM Customers WHERE Age >= 30")
	if rs.Row(0)[0] != int64(2) {
		t.Errorf("affected = %v", rs.Row(0))
	}
	got := mustQuery(t, e, "SELECT COUNT(*) FROM Adults")
	if got.Row(0)[0] != int64(2) {
		t.Errorf("inserted = %v", got.Row(0))
	}
}

func TestInsertPartialColumns(t *testing.T) {
	e := newTestEngine(t)
	mustQuery(t, e, "INSERT INTO Customers ([Customer ID], Gender) VALUES (9, 'Male')")
	rs := mustQuery(t, e, "SELECT Age FROM Customers WHERE [Customer ID] = 9")
	if rs.Len() != 1 || rs.Row(0)[0] != nil {
		t.Errorf("missing columns must be NULL: %v", rs.Rows())
	}
}

func TestDeleteWhere(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, "DELETE FROM Sales WHERE [Product Type] = 'Electronic'")
	if rs.Row(0)[0] != int64(3) {
		t.Errorf("deleted = %v", rs.Row(0))
	}
	left := mustQuery(t, e, "SELECT COUNT(*) FROM Sales")
	if left.Row(0)[0] != int64(3) {
		t.Errorf("remaining = %v", left.Row(0))
	}
	// Unconditional delete truncates.
	rs = mustQuery(t, e, "DELETE FROM Sales")
	if rs.Row(0)[0] != int64(3) {
		t.Errorf("truncate affected = %v", rs.Row(0))
	}
}

func TestUpdate(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, "UPDATE Customers SET Age = Age + 1 WHERE Gender = 'Male'")
	if rs.Row(0)[0] != int64(2) {
		t.Errorf("updated = %v", rs.Row(0))
	}
	got := mustQuery(t, e, "SELECT Age FROM Customers WHERE [Customer ID] = 1")
	if got.Row(0)[0] != 36.0 {
		t.Errorf("age after update = %v", got.Row(0))
	}
}

func TestDropTable(t *testing.T) {
	e := newTestEngine(t)
	mustQuery(t, e, "DROP TABLE Cars")
	if _, err := e.Exec("SELECT * FROM Cars"); err == nil {
		t.Error("select from dropped table must fail")
	}
}

func TestAmbiguousColumn(t *testing.T) {
	e := newTestEngine(t)
	_, err := e.Exec("SELECT CustID FROM Sales s JOIN Cars k ON s.CustID = k.CustID")
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous ref error = %v", err)
	}
}

func TestUnknownColumnAndTable(t *testing.T) {
	e := newTestEngine(t)
	if _, err := e.Exec("SELECT nope FROM Customers"); err == nil {
		t.Error("unknown column must fail")
	}
	if _, err := e.Exec("SELECT * FROM NoSuchTable"); err == nil {
		t.Error("unknown table must fail")
	}
	if _, err := e.Exec("SELECT x.* FROM Customers c"); err == nil {
		t.Error("unknown qualifier must fail")
	}
}

func TestDivisionByZeroIsNull(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, "SELECT 1 / 0")
	if rs.Row(0)[0] != nil {
		t.Errorf("1/0 = %v, want NULL", rs.Row(0)[0])
	}
}

func TestIntegerArithmeticStaysIntegral(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, "SELECT 2 + 3, 2 * 3, 7 - 4, 7 / 2")
	r := rs.Row(0)
	if r[0] != int64(5) || r[1] != int64(6) || r[2] != int64(3) {
		t.Errorf("int arith = %v", r)
	}
	if r[3] != 3.5 {
		t.Errorf("division promotes to double: %v", r[3])
	}
}

func TestScalarFunctions(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, `SELECT LEN('abc'), LOWER('AbC'), TRIM(' x '), SUBSTRING('hello', 2, 3),
		ABS(-4), ROUND(2.567, 2), FLOOR(2.9), CEILING(2.1), SQRT(9.0),
		COALESCE(NULL, NULL, 7), IIF(1 < 2, 'yes', 'no')`)
	r := rs.Row(0)
	want := rowset.Row{int64(3), "abc", "x", "ell", int64(4), 2.57, 2.0, 3.0, 3.0, int64(7), "yes"}
	for i, w := range want {
		if r[i] != w {
			t.Errorf("func %d = %#v want %#v", i, r[i], w)
		}
	}
	if _, err := e.Exec("SELECT NOSUCHFUNC(1)"); err == nil {
		t.Error("unknown function must fail")
	}
}

func TestStdevVar(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, "SELECT VAR(Age), STDEV(Age) FROM Customers")
	r := rs.Row(0)
	// Ages 35, 28, 52: mean 38.333..., sample var = ((35-m)^2+(28-m)^2+(52-m)^2)/2
	v := r[0].(float64)
	if v < 151 || v > 153 {
		t.Errorf("VAR = %v", v)
	}
	sd := r[1].(float64)
	if sd < 12.2 || sd > 12.4 {
		t.Errorf("STDEV = %v", sd)
	}
}

func TestAggregateInExpression(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, "SELECT MAX(Age) - MIN(Age) AS spread FROM Customers")
	if rs.Row(0)[0] != 24.0 {
		t.Errorf("spread = %v", rs.Row(0))
	}
}

// TestOutputNamesSuffixRule: output names follow the case-insensitive
// use-count rule the map-based naming had — checked against that rule as
// oracle on select lists with repeats, case variants and names that collide
// with a generated suffix.
func TestOutputNamesSuffixRule(t *testing.T) {
	oracle := func(ns []string) []string {
		out := make([]string, len(ns))
		seen := make(map[string]int)
		for i, n := range ns {
			key := strings.ToLower(n)
			if c, dup := seen[key]; dup {
				seen[key] = c + 1
				n = fmt.Sprintf("%s_%d", n, c+1)
				key = strings.ToLower(n)
			}
			seen[key] = 1
			out[i] = n
		}
		return out
	}
	for _, list := range [][]string{
		{"a", "b", "c"},
		{"a", "A", "a", "a_2", "A_2", "a_3"},
		{"x_2", "x", "X", "x", "x_3", "x"},
		{"Gender", "gender", "GENDER", "Gender_2", "gender_3"},
		{"Ärger", "ärger", "ÄRGER"},
	} {
		items := make([]SelectItem, len(list))
		for i, n := range list {
			items[i] = SelectItem{Expr: &ColumnRef{Name: n}}
		}
		got, want := outputNames(items), oracle(list)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("outputNames(%v) = %v, want %v", list, got, want)
		}
	}
}
