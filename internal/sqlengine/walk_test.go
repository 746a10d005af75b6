package sqlengine

import (
	"context"
	"strings"
	"testing"

	"repro/internal/rowset"
)

// TestSubqueriesAndParamsInEveryPosition runs a scalar, an IN and an EXISTS
// subquery, and a '?' parameter, in every expression position of every
// statement kind, and checks each against the same statement with the
// subquery's result (or the argument) written in as a literal: the statement's
// own result and the Scratch table after it must match.
func TestSubqueriesAndParamsInEveryPosition(t *testing.T) {
	// Each form is a predicate over the operand {X}: its subquery (or
	// parameter) text, and the literal text it must mean.
	forms := []struct{ name, sub, lit string }{
		{"scalar", "{X} < (SELECT MAX(CustID) FROM Sales)", "{X} < 3"},
		{"in", "{X} IN (SELECT CustID FROM Sales WHERE [Product Type] = 'Electronic')", "{X} IN (1, 1, 2)"},
		{"exists", "(EXISTS (SELECT 1 FROM Cars WHERE Probability > 0.9) AND {X} <> 2)", "(TRUE AND {X} <> 2)"},
		{"param", "{X} < ?", "{X} < 3"},
	}
	// Each position is a statement with {P} where the predicate goes, and the
	// operand {X} it compares.
	positions := []struct{ name, stmt, x string }{
		{"select items", "SELECT [Customer ID], IIF({P}, 1, 0) AS v FROM Customers ORDER BY [Customer ID]", "[Customer ID]"},
		{"join on", `SELECT c.[Customer ID], s.[Product Name] FROM Customers c
			JOIN Sales s ON c.[Customer ID] = s.CustID AND {P} ORDER BY c.[Customer ID], s.[Product Name]`, "c.[Customer ID]"},
		{"where", "SELECT [Customer ID] FROM Customers WHERE {P} ORDER BY [Customer ID]", "[Customer ID]"},
		{"group by", "SELECT COUNT(*) AS n FROM Customers GROUP BY IIF({P}, 1, 0) ORDER BY n", "[Customer ID]"},
		{"having", "SELECT CustID, COUNT(*) AS n FROM Sales GROUP BY CustID HAVING {P} ORDER BY CustID", "CustID"},
		{"order by", "SELECT [Customer ID] FROM Customers ORDER BY IIF({P}, 0, 1), [Customer ID]", "[Customer ID]"},
		{"insert values", "INSERT INTO Scratch VALUES (IIF({P}, 10, 20))", "2"},
		{"insert query", "INSERT INTO Scratch SELECT [Customer ID] FROM Customers WHERE {P}", "[Customer ID]"},
		{"update set", "UPDATE Scratch SET v = IIF({P}, 10, 20)", "v"},
		{"update where", "UPDATE Scratch SET v = 0 WHERE {P}", "v"},
		{"delete where", "DELETE FROM Scratch WHERE {P}", "v"},
	}
	run := func(t *testing.T, sql string) string {
		t.Helper()
		e := newTestEngine(t)
		mustQuery(t, e, "CREATE TABLE Scratch (v LONG)")
		mustQuery(t, e, "INSERT INTO Scratch VALUES (1), (2), (3)")
		st, err := Parse(sql)
		if err != nil {
			t.Fatalf("Parse(%q): %v", sql, err)
		}
		slots, err := AssignParams(st)
		if err != nil {
			t.Fatal(err)
		}
		args := make([]rowset.Value, len(slots))
		for i := range args {
			args[i] = int64(3)
		}
		if st, err = Bind(st, args); err != nil {
			t.Fatal(err)
		}
		rs, err := e.ExecStmtContext(context.Background(), st)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return rs.String() + mustQuery(t, e, "SELECT v FROM Scratch ORDER BY v").String()
	}
	for _, pos := range positions {
		for _, f := range forms {
			t.Run(pos.name+"/"+f.name, func(t *testing.T) {
				stmt := func(pred string) string {
					return strings.Replace(pos.stmt, "{P}", strings.ReplaceAll(pred, "{X}", pos.x), 1)
				}
				if got, want := run(t, stmt(f.sub)), run(t, stmt(f.lit)); got != want {
					t.Errorf("%s\ngot:\n%s\nwant (literal):\n%s", stmt(f.sub), got, want)
				}
			})
		}
	}
}
