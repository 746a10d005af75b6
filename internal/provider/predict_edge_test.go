package provider

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"

	"repro/internal/rowset"
)

// trainedProvider returns a provider with the running-example model trained.
func trainedProvider(t *testing.T, n int) *Provider {
	t.Helper()
	p := MustNew()
	setupCustomerData(t, p, n)
	mustExec(t, p, createAgeModel)
	mustExec(t, p, insertAgeModel)
	return p
}

func TestPredictionSelectStar(t *testing.T) {
	p := trainedProvider(t, 50)
	out := mustExec(t, p, `SELECT *, Predict([Age]) AS est FROM [Age Prediction]
		NATURAL PREDICTION JOIN (SELECT [Customer ID], Gender FROM Customers) AS t`)
	if out.Len() != 50 {
		t.Fatalf("rows = %d", out.Len())
	}
	// Star expands to the source columns plus the explicit item.
	names := out.Schema().Names()
	if len(names) != 3 {
		t.Fatalf("columns = %v", names)
	}
	if _, ok := out.Schema().Lookup("est"); !ok {
		t.Errorf("est column missing: %v", names)
	}
}

func TestPredictionBareModelColumnRef(t *testing.T) {
	p := trainedProvider(t, 50)
	// Bare [Age] (a PREDICT column, absent from the source) resolves to the
	// prediction estimate via the External hook.
	out := mustExec(t, p, `SELECT [Age] FROM [Age Prediction]
		NATURAL PREDICTION JOIN (SELECT 'Male' AS Gender) AS t`)
	if _, ok := out.Row(0)[0].(string); !ok { // discretized bucket label
		t.Errorf("bare Age ref = %#v", out.Row(0)[0])
	}
}

func TestPredictionUDFErrors(t *testing.T) {
	p := trainedProvider(t, 50)
	bad := []struct{ name, q string }{
		{"unknown column", `SELECT Predict([Nope]) FROM [Age Prediction]
			NATURAL PREDICTION JOIN (SELECT 'Male' AS Gender) AS t`},
		{"Predict without args", `SELECT Predict() FROM [Age Prediction]
			NATURAL PREDICTION JOIN (SELECT 'Male' AS Gender) AS t`},
		{"Predict on literal", `SELECT Predict(1) FROM [Age Prediction]
			NATURAL PREDICTION JOIN (SELECT 'Male' AS Gender) AS t`},
		{"TopCount arity", `SELECT TopCount(PredictHistogram([Age]), [$PROBABILITY])
			FROM [Age Prediction] NATURAL PREDICTION JOIN (SELECT 'Male' AS Gender) AS t`},
		{"TopCount non-table", `SELECT TopCount(1, [$PROBABILITY], 2)
			FROM [Age Prediction] NATURAL PREDICTION JOIN (SELECT 'Male' AS Gender) AS t`},
		{"TopCount bad rank column", `SELECT TopCount(PredictHistogram([Age]), [$NOPE], 2)
			FROM [Age Prediction] NATURAL PREDICTION JOIN (SELECT 'Male' AS Gender) AS t`},
		{"TopCount non-integer n", `SELECT TopCount(PredictHistogram([Age]), [$PROBABILITY], 'x')
			FROM [Age Prediction] NATURAL PREDICTION JOIN (SELECT 'Male' AS Gender) AS t`},
	}
	for _, c := range bad {
		if _, err := p.Execute(c.q); err == nil {
			t.Errorf("%s: must fail", c.name)
		}
	}
}

func TestPredictionOnClauseErrors(t *testing.T) {
	p := trainedProvider(t, 50)
	bad := []struct{ name, q string }{
		{"no model reference", `SELECT t.Gender FROM [Age Prediction]
			PREDICTION JOIN (SELECT 'Male' AS Gender) AS t ON t.Gender = t.Gender`},
		{"non-equality", `SELECT t.Gender FROM [Age Prediction]
			PREDICTION JOIN (SELECT 'Male' AS Gender) AS t ON [Age Prediction].Gender < t.Gender`},
		{"literal comparison", `SELECT t.Gender FROM [Age Prediction]
			PREDICTION JOIN (SELECT 'Male' AS Gender) AS t ON [Age Prediction].Gender = 'Male'`},
		{"unknown model column", `SELECT t.Gender FROM [Age Prediction]
			PREDICTION JOIN (SELECT 'Male' AS Gender) AS t ON [Age Prediction].Nope = t.Gender`},
		{"name mismatch", `SELECT t.G FROM [Age Prediction]
			PREDICTION JOIN (SELECT 'Male' AS G) AS t ON [Age Prediction].Gender = t.G`},
		{"unknown source column", `SELECT t.Gender FROM [Age Prediction]
			PREDICTION JOIN (SELECT 'Male' AS Gender) AS t ON [Age Prediction].Gender = t.Zzz`},
	}
	for _, c := range bad {
		if _, err := p.Execute(c.q); err == nil {
			t.Errorf("%s: must fail", c.name)
		}
	}
}

func TestPredictionNoBindableColumns(t *testing.T) {
	p := trainedProvider(t, 50)
	_, err := p.Execute(`SELECT 1 FROM [Age Prediction]
		NATURAL PREDICTION JOIN (SELECT 'x' AS Unrelated) AS t`)
	if err == nil || !strings.Contains(err.Error(), "binds no model columns") {
		t.Errorf("err = %v", err)
	}
}

func TestPredictVarianceMatchesStdev(t *testing.T) {
	p := MustNew()
	setupCustomerData(t, p, 200)
	mustExec(t, p, `CREATE MINING MODEL [CAge] (
		[Customer ID] LONG KEY, [Gender] TEXT DISCRETE,
		[Age] DOUBLE CONTINUOUS PREDICT
	) USING [Decision_Trees]`)
	mustExec(t, p, `INSERT INTO [CAge] ([Customer ID], [Gender], [Age])
		SELECT [Customer ID], Gender, Age FROM Customers`)
	out := mustExec(t, p, `SELECT PredictStdev([Age]) AS sd, PredictVariance([Age]) AS v
	FROM [CAge] NATURAL PREDICTION JOIN (SELECT 'Male' AS Gender) AS t`)
	sd := out.Row(0)[0].(float64)
	v := out.Row(0)[1].(float64)
	if sd <= 0 || v <= 0 {
		t.Fatalf("sd=%v v=%v", sd, v)
	}
	if diff := v - sd*sd; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("variance %v != stdev² %v", v, sd*sd)
	}
}

func TestPredictionJoinNestedTableCellInOutput(t *testing.T) {
	p := trainedProvider(t, 50)
	// Selecting the raw nested source column passes the nested rowset
	// through to the output schema.
	out := mustExec(t, p, `SELECT t.[Customer ID], t.[Product Purchases] FROM [Age Prediction]
		NATURAL PREDICTION JOIN (SHAPE {SELECT [Customer ID], Gender FROM Customers ORDER BY [Customer ID]}
		APPEND ({SELECT CustID, [Product Name] FROM Sales ORDER BY CustID}
			RELATE [Customer ID] TO [CustID]) AS [Product Purchases]) AS t`)
	if _, ok := out.Row(0)[1].(*rowset.Rowset); !ok {
		t.Errorf("nested passthrough = %T", out.Row(0)[1])
	}
	i, _ := out.Schema().Lookup("Product Purchases")
	if out.Schema().Column(i).Type != rowset.TypeTable {
		t.Error("output schema lost the TABLE type")
	}
}

func TestSourceErrorsPropagate(t *testing.T) {
	p := trainedProvider(t, 10)
	if _, err := p.Execute(`SELECT Predict([Age]) FROM [Age Prediction]
		NATURAL PREDICTION JOIN (SELECT Gender FROM NoSuchTable) AS t`); err == nil {
		t.Error("bad source must fail")
	}
	if _, err := p.Execute(`INSERT INTO [Age Prediction] ([Customer ID], [Gender], [Age])
		SELECT x FROM NoSuchTable`); err == nil {
		t.Error("bad insert source must fail")
	}
}

func TestModelAndTableNamespacesCoexist(t *testing.T) {
	// A mining model and a table may share a name context-free; the DMX
	// dispatcher routes by catalog. Create a table named like the model's
	// output and query both.
	p := trainedProvider(t, 20)
	mustExec(t, p, "CREATE TABLE Results (k LONG)")
	mustExec(t, p, "INSERT INTO Results VALUES (1)")
	rs := mustExec(t, p, "SELECT COUNT(*) FROM Results")
	if rs.Row(0)[0] != int64(1) {
		t.Errorf("table query = %v", rs.Row(0))
	}
}

func TestPredictionOrderBy(t *testing.T) {
	p := trainedProvider(t, 60)
	out := mustExec(t, p, `SELECT TOP 5 t.[Customer ID], PredictProbability([Age]) AS prob
	FROM [Age Prediction]
	NATURAL PREDICTION JOIN (SELECT [Customer ID], Gender FROM Customers) AS t
	ORDER BY PredictProbability([Age]) DESC, t.[Customer ID]`)
	if out.Len() != 5 {
		t.Fatalf("rows = %d", out.Len())
	}
	prev := out.Row(0)[1].(float64)
	for i := 1; i < out.Len(); i++ {
		cur := out.Row(i)[1].(float64)
		if cur > prev {
			t.Fatalf("not sorted desc: %v after %v", cur, prev)
		}
		prev = cur
	}
	// Ascending by source column.
	out = mustExec(t, p, `SELECT t.[Customer ID] FROM [Age Prediction]
	NATURAL PREDICTION JOIN (SELECT [Customer ID], Gender FROM Customers) AS t
	ORDER BY t.[Customer ID] DESC`)
	if out.Row(0)[0].(int64) != 60 {
		t.Errorf("desc order head = %v", out.Row(0)[0])
	}
}

// TestPredictionOrderByAlias: ORDER BY resolves an unqualified name against the
// select list first, as the SQL engine's SELECT does — the statement and its
// spelled-out twin sort alike.
func TestPredictionOrderByAlias(t *testing.T) {
	p := trainedProvider(t, 60)
	const head = `SELECT t.[Customer ID], PredictProbability([Age]) AS pr FROM [Age Prediction]
	NATURAL PREDICTION JOIN (SELECT [Customer ID], Gender FROM Customers) AS t `
	byAlias := mustExec(t, p, head+`ORDER BY pr DESC, t.[Customer ID]`)
	spelled := mustExec(t, p, head+`ORDER BY PredictProbability([Age]) DESC, t.[Customer ID]`)
	if byAlias.Len() != 60 || !bytes.Equal(encoded(t, byAlias), encoded(t, spelled)) {
		t.Errorf("ORDER BY pr returns %d rows, differing from ORDER BY PredictProbability([Age])", byAlias.Len())
	}
	// A name that is neither an output column, a source column nor a model
	// output is still the binder's to reject.
	if _, err := p.Execute(head + `ORDER BY nope`); err == nil || !strings.Contains(err.Error(), `unknown column "nope"`) {
		t.Errorf("ORDER BY nope: err = %v", err)
	}
}

// TestPredictionTopZero: TOP 0 is an empty result with its columns, not the
// whole source.
func TestPredictionTopZero(t *testing.T) {
	p := trainedProvider(t, 60)
	out := mustExec(t, p, `SELECT TOP 0 t.[Customer ID], Predict([Age]) AS age FROM [Age Prediction]
	NATURAL PREDICTION JOIN (SELECT [Customer ID], Gender FROM Customers) AS t`)
	if out.Len() != 0 || strings.Join(out.Schema().Names(), ",") != "Customer ID,age" {
		t.Errorf("TOP 0: %d rows under %v", out.Len(), out.Schema().Names())
	}
}

// TestPredictionWherePartitions: for a predicate p over predictions, the cases
// passing p, NOT p and (p) IS NULL are disjoint and together are the source —
// over three partitions, on one worker and four.
func TestPredictionWherePartitions(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := trainedProviderWorkers(t, workers, manyCustomers)
		label := mustExec(t, p, `SELECT TOP 1 Predict([Age]) FROM [Age Prediction]
			NATURAL PREDICTION JOIN (SELECT [Customer ID], Gender FROM Customers) AS t`).Row(0)[0].(string)
		for _, pred := range []string{
			fmt.Sprintf("Predict([Age]) = '%s'", label),
			"PredictProbability([Age]) > 0.9 AND t.[Customer ID] > 100",
			"RangeMid([Age]) > t.Age",
			// NULL for every case of gender 'Male'.
			"IIF(t.Gender = 'Male', NULL, PredictSupport([Age])) > 1",
		} {
			seen := make(map[int64]int)
			for _, arm := range []string{pred, "NOT (" + pred + ")", "(" + pred + ") IS NULL"} {
				out := mustExec(t, p, `SELECT t.[Customer ID] FROM [Age Prediction]
					NATURAL PREDICTION JOIN (SELECT * FROM Customers) AS t WHERE `+arm)
				for _, r := range out.Rows() {
					seen[r[0].(int64)]++
				}
			}
			if len(seen) != manyCustomers {
				t.Errorf("workers=%d %s: the three arms return %d distinct cases of %d", workers, pred, len(seen), manyCustomers)
			}
			for id, n := range seen {
				if n != 1 {
					t.Fatalf("workers=%d %s: case %d is in %d arms", workers, pred, id, n)
				}
			}
		}
	}
}

// TestPredictionTopStopsEarly: SELECT TOP n ... PREDICTION JOIN without ORDER
// BY tokenizes at most one batch of a 22,500-case source at every worker count
// (counted by the predict operator's span, not timed), and logs one goroutine.
func TestPredictionTopStopsEarly(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := trainedProviderWorkers(t, workers, 150)
		rows := decodeExplain(t, mustExec(t, p, `EXPLAIN ANALYZE SELECT TOP 5 t.[Customer ID], Predict([Age])
			FROM [Age Prediction] NATURAL PREDICTION JOIN
			(SELECT c.[Customer ID], c.Gender FROM Customers AS c, Customers AS d) AS t
			WHERE t.Gender = 'Female'`))
		// The cross join streams into the binder, so it stops with the TOP:
		// the caseset is the cases the binder saw, not the join's 22 500 rows.
		pr := findOp(rows, "predict")
		if n := pr.rows.(int64); n == 0 || n > rowset.DefaultBatchSize {
			t.Errorf("workers=%d: predict tokenized %d cases for TOP 5, want at most one batch (%d)",
				workers, n, rowset.DefaultBatchSize)
		}
		if cs := findOp(rows, "caseset"); cs.rows != pr.rows {
			t.Errorf("workers=%d: caseset has %v cases, predict %v", workers, cs.rows, pr.rows)
		}
		if strings.Contains(pr.label, "morsels=") {
			t.Errorf("workers=%d: predict label %q: a streaming TOP is one partition", workers, pr.label)
		}
		if rows[0].rows.(int64) != 5 {
			t.Errorf("workers=%d: statement returned %v rows, want 5", workers, rows[0].rows)
		}
	}
}

// TestPredictionRunsOnThePipeline guards the one-executor rule: predict.go
// builds a relation and hands it to the SQL engine. It starts no goroutine,
// imports no worker pool, and sorts, adopts and resolves nothing itself; the
// pieces of the second executor it used to be stay deleted.
func TestPredictionRunsOnThePipeline(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "predict.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range file.Imports {
		if imp.Path.Value == `"repro/internal/par"` {
			t.Errorf("predict.go imports internal/par")
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			t.Errorf("%s: predict.go starts a goroutine", fset.Position(x.Pos()))
		case *ast.SelectorExpr:
			if pkg, ok := x.X.(*ast.Ident); ok {
				switch pkg.Name + "." + x.Sel.Name {
				case "rowset.SortByKeys", "rowset.Adopt", "sqlengine.ResolveColumn":
					t.Errorf("%s: predict.go calls %s.%s", fset.Position(x.Pos()), pkg.Name, x.Sel.Name)
				}
			}
		}
		return true
	})
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	gone := map[string]bool{
		"minParallelCases": true, "caseResult": true, "sortPredictionRows": true,
		"expandPredictionItems": true, "itemNames": true, "predictionOutputSchema": true,
	}
	for _, pkg := range pkgs {
		ast.Inspect(pkg, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && gone[id.Name] {
				t.Errorf("%s: identifier %s is back", fset.Position(id.Pos()), id.Name)
			}
			return true
		})
	}
}

// TestRowsetsRunOnThePipeline guards the one-SELECT rule for provider
// rowsets: the five statement kinds that each accepted only SELECT * stay
// deleted, dmx parses no SELECT clause of its own (sqlengine's head and tail
// parsers do), and the provider tells its rowsets apart in one place, the
// resolver providerRowset.
func TestRowsetsRunOnThePipeline(t *testing.T) {
	fset := token.NewFileSet()
	nonTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	parse := func(dir string) map[string]*ast.Package {
		pkgs, err := parser.ParseDir(fset, dir, nonTest, 0)
		if err != nil {
			t.Fatal(err)
		}
		return pkgs
	}
	gone := map[string]bool{
		"ContentSelect": true, "ColumnsSelect": true, "CasesSelect": true, "PMMLSelect": true,
		"SchemaRowsetSelect": true, "isReserved": true, "ModelColumns": true,
	}
	clauses := map[string]bool{`Accept("TOP")`: true, `Accept("WHERE")`: true, `AcceptSeq("ORDER","BY")`: true}
	accessors := map[string]bool{`"CONTENT"`: true, `"COLUMNS"`: true, `"CASES"`: true, `"PMML"`: true}
	for _, dir := range []string{"../dmx", ".", "../schemarowset"} {
		for _, pkg := range parse(dir) {
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					fn, _ := decl.(*ast.FuncDecl)
					// tested reports an accessor name a provider switch arm or
					// comparison tests for, outside the resolver.
					tested := func(es ...ast.Expr) {
						if dir != "." || fn != nil && fn.Name.Name == "providerRowset" {
							return
						}
						for _, e := range es {
							if lit, ok := e.(*ast.BasicLit); ok && accessors[lit.Value] {
								t.Errorf("%s: provider tests for accessor %s outside providerRowset", fset.Position(lit.Pos()), lit.Value)
							}
						}
					}
					ast.Inspect(decl, func(n ast.Node) bool {
						switch x := n.(type) {
						case *ast.Ident:
							if gone[x.Name] {
								t.Errorf("%s: identifier %s is back", fset.Position(x.Pos()), x.Name)
							}
						case *ast.CallExpr:
							sel, ok := x.Fun.(*ast.SelectorExpr)
							if !ok || dir != "../dmx" {
								break
							}
							var args []string
							for _, a := range x.Args {
								if lit, ok := a.(*ast.BasicLit); ok {
									args = append(args, lit.Value)
								}
							}
							if call := sel.Sel.Name + "(" + strings.Join(args, ",") + ")"; clauses[call] {
								t.Errorf("%s: dmx parses a SELECT clause itself: %s", fset.Position(x.Pos()), call)
							}
						case *ast.CaseClause:
							tested(x.List...)
						case *ast.BinaryExpr:
							tested(x.X, x.Y)
						}
						return true
					})
				}
			}
		}
	}
}
