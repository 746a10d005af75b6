package main

import (
	"fmt"
	"strings"

	"repro/internal/rowset"
	"repro/internal/workload"
)

// statement is one timed statement of an op, with what the layer ledger
// needs to call its layers standalone and what the output check expects.
type statement struct {
	name string
	// text is what the client sends: the ad-hoc command for key, or — when
	// handle is set — the body behind the prepared handle (key unused).
	text   func(key int64) string
	handle string
	// prep statements run before the op's timed pass, untimed.
	prep []string
	// rows is the input the statement consumes: Σ Len() of the base tables
	// it scans, or 1 for an index probe.
	rows int64
	// sources are the SQL queries feeding the statement (the statement
	// itself for plain SQL, "?" standing for the key); shape is its SHAPE
	// caseset. The ledger runs them standalone on a bare engine.
	sources []string
	shape   string
	check   func(key int64, rs *rowset.Rowset) error
}

func static(s string) func(int64) string { return func(int64) string { return s } }

type preparedStmt struct{ handle, text string }

// workloadDef describes one workload: what its set-up builds and what one op
// is. Every workload is a closed loop of `clients` clients in this process.
type workloadDef struct {
	name    string
	clients int
	wire    bool // clients are dmclient connections to a loopback dmserver
	index   bool // hash index on Customers.[Customer ID]
	trainer bool // a second in-process session retrains [Load Train] beside the clients
	// keyed ops are index probes on the next seeded key; the others run a
	// fixed statement list.
	keyed bool
	// sqlDriver adds the op through database/sql to the ledger
	// (driver_tax_us); obsTwin adds the comparison against a system built
	// without observability (obs_overhead_share).
	sqlDriver, obsTwin bool
	setup              []string
	prepared           []preparedStmt
	// stmts builds the op's statement list; it computes the expected outputs
	// from the generator's ground truth, outside the timed set-up.
	stmts func(e *env) []statement
}

const (
	minAccuracy = 0.15 // floor on predict_batch age-bucket accuracy; see README "Output checks"

	modelNB  = "Bench NB Nested"
	modelDT  = "Bench DT Nested"
	modelDTF = "Bench DT Flat"
	modelNBF = "Bench NB Flat"

	nestedColumns = `([Customer ID] LONG KEY, [Gender] TEXT DISCRETE, [Age] DOUBLE DISCRETIZED PREDICT,
	[Product Purchases] TABLE([Product Name] TEXT KEY, [Quantity] DOUBLE CONTINUOUS))`
	flatColumns = `([Customer ID] LONG KEY, [Gender] TEXT DISCRETE, [Hair Color] TEXT DISCRETE, [Age] DOUBLE DISCRETIZED PREDICT)`

	flatTrainSource = `SELECT [Customer ID], Gender, [Hair Color], Age FROM Customers ORDER BY [Customer ID]`

	sqlFilterSort = `SELECT [Customer ID], Gender, Age FROM Customers WHERE Age > 30 ORDER BY Age`
	sqlFilterWide = `SELECT [Customer ID], Gender, Age FROM Customers
	WHERE Age > 21 AND Age < 60 AND Gender = 'Male' AND [Customer ID] > 0`
	sqlGroupBy  = `SELECT [Product Name], COUNT(*), SUM(Quantity) FROM Sales GROUP BY [Product Name]`
	sqlJoinAgg  = `SELECT c.Gender, COUNT(*), SUM(s.Quantity) FROM Customers c JOIN Sales s ON c.[Customer ID] = s.CustID GROUP BY c.Gender`
	pointSelect = `SELECT [Customer ID], Gender, Age FROM Customers WHERE [Customer ID] = ?`
)

func createModel(name, columns, service string) string {
	return fmt.Sprintf("CREATE MINING MODEL [%s] %s USING [%s]", name, columns, service)
}

func dropModel(name string) string { return fmt.Sprintf("DROP MINING MODEL [%s]", name) }

func trainFlat(name string) string {
	return fmt.Sprintf("INSERT INTO [%s] ([Customer ID], [Gender], [Hair Color], [Age])\n\t%s", name, flatTrainSource)
}

// nestedShape is the paper's nested caseset — customers with their product
// purchases — optionally restricted to [Customer ID] <= limit in both
// sub-queries. It returns the SHAPE text and its two source queries.
func nestedShape(limit int) (shape string, sources []string) {
	custWhere, salesWhere := "", ""
	if limit > 0 {
		custWhere = fmt.Sprintf(" WHERE [Customer ID] <= %d", limit)
		salesWhere = fmt.Sprintf(" WHERE CustID <= %d", limit)
	}
	cust := "SELECT [Customer ID], Gender, Age FROM Customers" + custWhere + " ORDER BY [Customer ID]"
	sales := "SELECT CustID, [Product Name], Quantity FROM Sales" + salesWhere + " ORDER BY CustID"
	shape = fmt.Sprintf("SHAPE {%s}\n\tAPPEND ({%s}\n\t\tRELATE [Customer ID] TO [CustID]) AS [Product Purchases]", cust, sales)
	return shape, []string{cust, sales}
}

func trainNested(name, shape string) string {
	return fmt.Sprintf("INSERT INTO [%s] ([Customer ID], [Gender], [Age], [Product Purchases]([Product Name], [Quantity]))\n\t%s", name, shape)
}

func predictAll(model string) (stmt, source string) {
	source = "SELECT [Customer ID], Gender, [Hair Color] FROM Customers"
	stmt = fmt.Sprintf("SELECT t.[Customer ID], [%s].[Age], PredictProbability([Age]) FROM [%s]\n\tNATURAL PREDICTION JOIN (%s) AS t", model, model, source)
	return stmt, source
}

// pointPredict is workload.PredictStatement with the key as a parameter.
var pointPredict = fmt.Sprintf(`SELECT t.[Customer ID], [%s].Age FROM [%s]
	NATURAL PREDICTION JOIN (SELECT [Customer ID], Gender FROM Customers WHERE [Customer ID] = ?) AS t`,
	workload.LoadModelName, workload.LoadModelName)

var pointPrepared = []preparedStmt{{"bench_select", pointSelect}, {"bench_predict", pointPredict}}

var loadSetup = workload.LoadSetupStatements()

// flatModelSetup creates and trains the flat models predict_batch and
// wire_bulk predict with.
func flatModelSetup(models ...string) []string {
	var out []string
	for _, m := range models {
		service := "Decision_Trees"
		if m == modelNBF {
			service = "Naive_Bayes"
		}
		out = append(out, createModel(m, flatColumns, service), trainFlat(m))
	}
	return out
}

// workloads lists the seven workloads in report order. BENCHMARK.json and
// README.md carry the same names with the reason each exists.
var workloads = []*workloadDef{
	{name: "sql_analytic", clients: 1, stmts: analyticStmts},
	{name: "train_nested", clients: 1, stmts: trainStmts,
		// The models exist before the first op so every op's untimed
		// DROP/CREATE succeeds.
		setup: []string{
			createModel(modelNB, nestedColumns, "Naive_Bayes"),
			createModel(modelDT, nestedColumns, "Decision_Trees"),
			createModel(modelDTF, flatColumns, "Decision_Trees"),
		}},
	{name: "predict_batch", clients: 1, obsTwin: true, setup: flatModelSetup(modelDTF, modelNBF), stmts: predictStmts},
	{name: "point_inproc", clients: 1, index: true, keyed: true, sqlDriver: true, obsTwin: true, setup: loadSetup, prepared: pointPrepared, stmts: pointStmts},
	{name: "wire_small", clients: 2, wire: true, index: true, keyed: true, setup: loadSetup, prepared: pointPrepared, stmts: pointStmts},
	{name: "wire_bulk", clients: 1, wire: true, setup: flatModelSetup(modelDTF),
		stmts: func(e *env) []statement { return []statement{predictStmts(e)[0], analyticStmts(e)[0]} }},
	{name: "read_while_train", clients: 1, index: true, keyed: true, trainer: true, setup: loadSetup, prepared: pointPrepared,
		stmts: func(e *env) []statement { return pointStmts(e)[1:] }},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func wantRows(want int64) func(int64, *rowset.Rowset) error {
	return func(_ int64, rs *rowset.Rowset) error {
		if int64(rs.Len()) != want {
			return fmt.Errorf("%d rows, want %d", rs.Len(), want)
		}
		return nil
	}
}

// wantGroupTotal checks an aggregate result whose second column is COUNT(*):
// groups rows, and the counts add up to total.
func wantGroupTotal(groups int, total int64) func(int64, *rowset.Rowset) error {
	return func(_ int64, rs *rowset.Rowset) error {
		if groups > 0 && rs.Len() != groups {
			return fmt.Errorf("%d groups, want %d", rs.Len(), groups)
		}
		var sum int64
		for _, r := range rs.Rows() {
			n, _ := r[1].(int64)
			sum += n
		}
		if sum != total || rs.Len() == 0 {
			return fmt.Errorf("group counts sum to %d over %d groups, want %d", sum, rs.Len(), total)
		}
		return nil
	}
}

func analyticStmts(e *env) []statement {
	customers, sales := e.tables["Customers"], e.tables["Sales"]
	var over30, wide int64
	for id, age := range e.truth.AgeOf {
		if age > 30 {
			over30++
		}
		if age > 21 && age < 60 && e.truth.GenderOf[id] == "Male" {
			wide++
		}
	}
	return []statement{
		{name: "filter_sort", text: static(sqlFilterSort), rows: customers, sources: []string{sqlFilterSort}, check: wantRows(over30)},
		{name: "filter_wide", text: static(sqlFilterWide), rows: customers, sources: []string{sqlFilterWide}, check: wantRows(wide)},
		{name: "group_by", text: static(sqlGroupBy), rows: sales, sources: []string{sqlGroupBy}, check: wantGroupTotal(0, sales)},
		{name: "join_agg", text: static(sqlJoinAgg), rows: customers + sales, sources: []string{sqlJoinAgg}, check: wantGroupTotal(2, sales)},
	}
}

// wantCases checks the single-cell summary INSERT INTO returns.
func wantCases(want int64) func(int64, *rowset.Rowset) error {
	return func(_ int64, rs *rowset.Rowset) error {
		if rs.Len() != 1 {
			return fmt.Errorf("INSERT INTO returned %d rows, want a one-row summary", rs.Len())
		}
		if got, _ := rs.Row(0)[0].(int64); got != want {
			return fmt.Errorf("INSERT INTO consumed %v cases, want %d", rs.Row(0)[0], want)
		}
		return nil
	}
}

func trainStmts(e *env) []statement {
	customers, sales := e.tables["Customers"], e.tables["Sales"]
	tenth := e.cfg.Scale / 10
	full, fullSrc := nestedShape(0)
	part, partSrc := nestedShape(tenth)
	return []statement{
		{name: "nb_nested", text: static(trainNested(modelNB, full)), rows: customers + sales, sources: fullSrc, shape: full,
			prep: []string{dropModel(modelNB), createModel(modelNB, nestedColumns, "Naive_Bayes")}, check: wantCases(customers)},
		{name: "dt_nested_tenth", text: static(trainNested(modelDT, part)), rows: customers + sales, sources: partSrc, shape: part,
			prep: []string{dropModel(modelDT), createModel(modelDT, nestedColumns, "Decision_Trees")}, check: wantCases(int64(tenth))},
		{name: "dt_flat", text: static(trainFlat(modelDTF)), rows: customers, sources: []string{flatTrainSource},
			prep: []string{dropModel(modelDTF), createModel(modelDTF, flatColumns, "Decision_Trees")}, check: wantCases(customers)},
	}
}

// bucketBounds parses a discretization bucket label as core.BucketLabels
// renders it: "<= x", "(a, b]" or "> x".
func bucketBounds(label string) (lo, hi float64, ok bool) {
	const inf = 1e300
	switch {
	case strings.HasPrefix(label, "<= "):
		_, err := fmt.Sscanf(label, "<= %g", &hi)
		return -inf, hi, err == nil
	case strings.HasPrefix(label, "> "):
		_, err := fmt.Sscanf(label, "> %g", &lo)
		return lo, inf, err == nil
	default:
		_, err := fmt.Sscanf(label, "(%g, %g]", &lo, &hi)
		return lo, hi, err == nil
	}
}

// wantPredictions checks a whole-table PREDICTION JOIN: one row per customer,
// a probability in (0, 1], and the predicted age bucket containing the true
// age for at least minAccuracy of the customers.
func wantPredictions(e *env) func(int64, *rowset.Rowset) error {
	type bounds struct{ lo, hi float64 }
	return func(_ int64, rs *rowset.Rowset) error {
		if int64(rs.Len()) != e.tables["Customers"] {
			return fmt.Errorf("%d predictions, want one per customer (%d)", rs.Len(), e.tables["Customers"])
		}
		labels := make(map[string]bounds)
		hits := 0
		for _, r := range rs.Rows() {
			id, _ := r[0].(int64)
			label, _ := r[1].(string)
			b, seen := labels[label]
			if !seen {
				lo, hi, ok := bucketBounds(label)
				if !ok {
					return fmt.Errorf("customer %d: predicted age %v is not a bucket label", id, r[1])
				}
				b = bounds{lo, hi}
				labels[label] = b
			}
			if p, _ := r[2].(float64); !(p > 0 && p <= 1) {
				return fmt.Errorf("customer %d: PredictProbability %v outside (0, 1]", id, r[2])
			}
			// The labels print cut points to four significant digits.
			if age := e.truth.AgeOf[id]; age > b.lo-0.01 && age <= b.hi+0.01 {
				hits++
			}
		}
		if acc := float64(hits) / float64(rs.Len()); acc < minAccuracy {
			return fmt.Errorf("age-bucket accuracy %.3f below the floor %.2f", acc, minAccuracy)
		}
		return nil
	}
}

func predictStmts(e *env) []statement {
	customers := e.tables["Customers"]
	var out []statement
	for _, m := range []struct{ name, model string }{{"predict_dt", modelDTF}, {"predict_nb", modelNBF}} {
		stmt, source := predictAll(m.model)
		out = append(out, statement{name: m.name, text: static(stmt), rows: customers, sources: []string{source}, check: wantPredictions(e)})
	}
	return out
}

func pointStmts(e *env) []statement {
	wantCustomer := func(key int64, rs *rowset.Rowset) error {
		if rs.Len() != 1 {
			return fmt.Errorf("key %d: %d rows, want 1", key, rs.Len())
		}
		r := rs.Row(0)
		if r[0] != key || r[1] != e.truth.GenderOf[key] || r[2] != e.truth.AgeOf[key] {
			return fmt.Errorf("key %d: got %v, want (%d, %s, %v)", key, r, key, e.truth.GenderOf[key], e.truth.AgeOf[key])
		}
		return nil
	}
	wantPrediction := func(key int64, rs *rowset.Rowset) error {
		if rs.Len() != 1 {
			return fmt.Errorf("key %d: %d predictions, want 1", key, rs.Len())
		}
		r := rs.Row(0)
		if _, _, ok := bucketBounds(fmt.Sprint(r[1])); r[0] != key || !ok {
			return fmt.Errorf("key %d: got %v, want (%d, <age bucket>)", key, r, key)
		}
		return nil
	}
	adhoc := func(key int64) string { return workload.SelectStatement(int(key)) }
	return []statement{
		{name: "adhoc_select", text: adhoc, rows: 1, sources: []string{pointSelect}, check: wantCustomer},
		{name: "prepared_select", text: static(pointSelect), handle: "bench_select", rows: 1, sources: []string{pointSelect}, check: wantCustomer},
		{name: "prepared_predict", text: static(pointPredict), handle: "bench_predict", rows: 1,
			sources: []string{"SELECT [Customer ID], Gender FROM Customers WHERE [Customer ID] = ?"}, check: wantPrediction},
	}
}
