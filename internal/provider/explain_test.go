package provider

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rowset"
)

const predictAgeQuery = `SELECT t.[Customer ID], Predict([Age]) FROM [Age Prediction]
	NATURAL PREDICTION JOIN
	(SELECT [Customer ID], Gender, Age FROM Customers) AS t`

// explainRows decodes an EXPLAIN result into a convenient struct list.
type explainRow struct {
	spanID, parentID, depth int64
	parentNull              bool
	operator, label         string
	elapsedUS, rows         rowset.Value // nil for plan-only
}

func decodeExplain(t *testing.T, rs *rowset.Rowset) []explainRow {
	t.Helper()
	for _, want := range []string{"SPAN_ID", "PARENT_ID", "DEPTH", "OPERATOR", "LABEL", "ELAPSED_US", "ROWS"} {
		if _, ok := rs.Schema().Lookup(want); !ok {
			t.Fatalf("EXPLAIN result misses column %s (have %v)", want, rs.Schema().Names())
		}
	}
	ord := func(name string) int {
		o, _ := rs.Schema().Lookup(name)
		return o
	}
	var out []explainRow
	for _, r := range rs.Rows() {
		er := explainRow{
			spanID:    r[ord("SPAN_ID")].(int64),
			depth:     r[ord("DEPTH")].(int64),
			operator:  r[ord("OPERATOR")].(string),
			label:     r[ord("LABEL")].(string),
			elapsedUS: r[ord("ELAPSED_US")],
			rows:      r[ord("ROWS")],
		}
		if r[ord("PARENT_ID")] == nil {
			er.parentNull = true
		} else {
			er.parentID = r[ord("PARENT_ID")].(int64)
		}
		out = append(out, er)
	}
	return out
}

func operators(rows []explainRow) string {
	ops := make([]string, len(rows))
	for i, r := range rows {
		ops[i] = r.operator
	}
	return strings.Join(ops, ",")
}

func findOp(rows []explainRow, op string) *explainRow {
	for i := range rows {
		if rows[i].operator == op {
			return &rows[i]
		}
	}
	return nil
}

// TestExplainPlanOnly: bare EXPLAIN renders the operator plan without running
// the statement — ELAPSED_US/ROWS are NULL and no model training happens.
func TestExplainPlanOnly(t *testing.T) {
	p := MustNew()
	setupCustomerData(t, p, 40)
	mustExec(t, p, createAgeModel)

	rs := mustExec(t, p, "EXPLAIN "+insertAgeModel)
	rows := decodeExplain(t, rs)
	if len(rows) < 5 {
		t.Fatalf("EXPLAIN INSERT plan has %d spans (%s), want several", len(rows), operators(rows))
	}
	if rows[0].operator != "statement" || !rows[0].parentNull || rows[0].depth != 0 {
		t.Fatalf("first row is %+v, want depth-0 statement root with NULL parent", rows[0])
	}
	for _, op := range []string{"caseset", "shape", "append", "select", "scan", "bind", "train", "tokenize", "discretize"} {
		if findOp(rows, op) == nil {
			t.Errorf("plan misses operator %q (have %s)", op, operators(rows))
		}
	}
	if tr := findOp(rows, "train"); tr != nil && !strings.Contains(tr.label, "Decision_Trees_101") {
		t.Errorf("train span label = %q, want the algorithm name", tr.label)
	}
	for _, r := range rows {
		if r.elapsedUS != nil || r.rows != nil {
			t.Fatalf("plan-only span %s has measured values %v/%v, want NULL", r.operator, r.elapsedUS, r.rows)
		}
	}
	// A prediction statement lists the source's operators, then the predict
	// operator and the SQL engine's own filter, project and sort — the order
	// execution records them in.
	rows = decodeExplain(t, mustExec(t, p, "EXPLAIN "+predictAgeQuery+" WHERE t.Age > 30 ORDER BY Predict([Age])"))
	if got, want := operators(rows), "statement,caseset,select,scan,project,select,predict,filter,project,sort"; got != want {
		t.Errorf("EXPLAIN of a prediction join lists %s, want %s", got, want)
	}
	// The statement was planned, not run: the model must still be untrained.
	if _, err := p.Execute(predictAgeQuery); err == nil ||
		!strings.Contains(err.Error(), "not populated") {
		t.Fatalf("model trained by bare EXPLAIN (predict err = %v)", err)
	}
}

// TestExplainAnalyzePredict is the acceptance path: EXPLAIN ANALYZE of a
// PREDICTION JOIN returns a measured span tree whose per-operator times are
// consistent with the query log's elapsed time for the statement.
func TestExplainAnalyzePredict(t *testing.T) {
	p := MustNew()
	setupCustomerData(t, p, 60)
	mustExec(t, p, createAgeModel)
	mustExec(t, p, insertAgeModel)

	rs := mustExec(t, p, "EXPLAIN ANALYZE "+predictAgeQuery)
	rows := decodeExplain(t, rs)
	if rows[0].operator != "statement" || !rows[0].parentNull {
		t.Fatalf("root row = %+v", rows[0])
	}
	for _, op := range []string{"caseset", "select", "scan", "predict"} {
		if findOp(rows, op) == nil {
			t.Fatalf("measured tree misses operator %q (have %s)", op, operators(rows))
		}
	}
	// The same operators, in the same order, as bare EXPLAIN lists.
	planned := decodeExplain(t, mustExec(t, p, "EXPLAIN "+predictAgeQuery))
	if got, want := operators(rows), operators(planned); got != want {
		t.Errorf("EXPLAIN ANALYZE ran %s, EXPLAIN planned %s", got, want)
	}
	pr := findOp(rows, "predict")
	if pr.label != "model=Age Prediction batches=1" {
		t.Errorf("predict span label = %q, want the model name and, like any executed operator, its batches", pr.label)
	}
	if pr.rows.(int64) != 60 {
		t.Errorf("predict span rows = %v, want 60", pr.rows)
	}
	if sc := findOp(rows, "scan"); sc.rows.(int64) != 60 {
		t.Errorf("scan span rows = %v, want 60", sc.rows)
	}

	// Every span is measured, children nest inside their parents' time, and
	// the direct children of the root sum to no more than the root.
	byID := map[int64]explainRow{}
	for _, r := range rows {
		if r.elapsedUS == nil || r.rows == nil {
			t.Fatalf("ANALYZE span %s has NULL measurements", r.operator)
		}
		byID[r.spanID] = r
	}
	var childSum int64
	for _, r := range rows[1:] {
		parent := byID[r.parentID]
		if r.elapsedUS.(int64) > parent.elapsedUS.(int64)+1000 {
			t.Errorf("span %s (%dus) exceeds parent %s (%dus)",
				r.operator, r.elapsedUS, parent.operator, parent.elapsedUS)
		}
		if r.depth == 1 {
			childSum += r.elapsedUS.(int64)
		}
	}
	rootUS := rows[0].elapsedUS.(int64)
	if childSum > rootUS+1000 {
		t.Errorf("depth-1 spans sum to %dus, exceeding the root's %dus", childSum, rootUS)
	}

	// The query log recorded the EXPLAIN statement itself; the span tree's
	// root must account for (nearly all of) that elapsed time.
	var logged bool
	for _, rec := range p.Obs().QueryLog().Snapshot() {
		if rec.Kind != "EXPLAIN" || !strings.HasPrefix(rec.Statement, "EXPLAIN ANALYZE") {
			continue
		}
		logged = true
		if rootUS > rec.Elapsed.Microseconds()+1000 {
			t.Errorf("root span %dus exceeds query-log elapsed %dus", rootUS, rec.Elapsed.Microseconds())
		}
		if rec.Elapsed-time.Duration(rootUS)*time.Microsecond > 250*time.Millisecond {
			t.Errorf("query-log elapsed %v far exceeds root span %dus", rec.Elapsed, rootUS)
		}
	}
	if !logged {
		t.Fatal("EXPLAIN ANALYZE statement missing from DM_QUERY_LOG")
	}
}

// TestExplainAnalyzeJoinBuildAndSortPath: EXPLAIN ANALYZE of a hash join
// shows the index build apart from the probe — the right input's scan span
// counts the rows indexed and times the build, the join span the probe — and
// the sort span's label names the path the sort took, with the same operators
// bare EXPLAIN plans.
func TestExplainAnalyzeJoinBuildAndSortPath(t *testing.T) {
	p := MustNew()
	setupCustomerData(t, p, 5000)
	sales := mustExec(t, p, "SELECT COUNT(*) FROM Sales").Row(0)[0].(int64)
	const join = "SELECT c.Gender, s.Quantity FROM Customers c JOIN Sales s ON c.[Customer ID] = s.CustID ORDER BY "
	for order, path := range map[string]string{
		"c.[Customer ID]": "presorted", // the join keeps the customers' scan order
		"s.Quantity DESC": "radix",
		"c.Gender":        "compare",
	} {
		q := join + order
		rows := decodeExplain(t, mustExec(t, p, "EXPLAIN ANALYZE "+q))
		planned := decodeExplain(t, mustExec(t, p, "EXPLAIN "+q))
		if got, want := operators(rows), operators(planned); got != want || got != "statement,select,scan,scan,join,project,sort" {
			t.Fatalf("%s: EXPLAIN ANALYZE ran %s, EXPLAIN planned %s", q, got, want)
		}
		build, probe := rows[3], rows[4]
		if build.rows != sales || build.elapsedUS == nil || build.elapsedUS.(int64) <= 0 {
			t.Errorf("%s: right input's scan span = %v rows in %v us, want the %d rows indexed and the build's time", q, build.rows, build.elapsedUS, sales)
		}
		if probe.rows != sales || probe.elapsedUS == nil {
			t.Errorf("%s: join span = %v rows in %v us, want %d joined rows and the probe's time", q, probe.rows, probe.elapsedUS, sales)
		}
		if sort := findOp(rows, "sort"); sort.label != path {
			t.Errorf("%s: sort span label %q, want %q", q, sort.label, path)
		}
	}
}

// TestExplainAnalyzePredictPartitioned: a source above the partition size runs
// the predict operator as partitions on the engine's workers; its span says so
// the way a scan's does, ORDER BY adds the engine's sort, and DM_QUERY_LOG
// records the goroutines the partitions ran on.
func TestExplainAnalyzePredictPartitioned(t *testing.T) {
	p := trainedProviderWorkers(t, 2, manyCustomers)
	rows := decodeExplain(t, mustExec(t, p, "EXPLAIN ANALYZE "+predictAgeQuery+
		" WHERE t.Age > 30 ORDER BY Predict([Age]), t.[Customer ID]"))
	if got, want := operators(rows), "statement,caseset,select,scan,project,select,predict,filter,project,sort"; got != want {
		t.Errorf("operators = %s, want %s", got, want)
	}
	pr := findOp(rows, "predict")
	if !strings.HasPrefix(pr.label, "model=Age Prediction morsels=3 workers=2 batches=") {
		t.Errorf("predict span label = %q, want model, fan-out and batches", pr.label)
	}
	if pr.rows.(int64) != manyCustomers {
		t.Errorf("predict span rows = %v, want %d", pr.rows, manyCustomers)
	}
	if f, s := findOp(rows, "filter"), findOp(rows, "sort"); f.rows.(int64) >= manyCustomers || s.rows != f.rows {
		t.Errorf("filter passed %v of %d cases and sort saw %v", f.rows, manyCustomers, s.rows)
	}
	mustExec(t, p, predictAgeQuery)
	// One partition end to end: a streaming TOP over a streaming TOP.
	mustExec(t, p, "SELECT TOP 3 t.[Customer ID] FROM [Age Prediction] NATURAL PREDICTION JOIN (SELECT TOP 9 * FROM Customers) AS t")
	log := p.Obs().QueryLog().Snapshot()
	if full, top := log[len(log)-2], log[len(log)-1]; full.Parallelism != 2 || top.Parallelism != 1 {
		t.Errorf("PARALLELISM logged: %d for the partitioned join, %d for the streaming TOP; want 2 and 1",
			full.Parallelism, top.Parallelism)
	}
}

// TestExplainAnalyzeInsertExecutes: ANALYZE really runs the statement — the
// model is trained afterwards and the train span carries the case count.
func TestExplainAnalyzeInsertExecutes(t *testing.T) {
	p := MustNew()
	setupCustomerData(t, p, 30)
	mustExec(t, p, createAgeModel)

	rs := mustExec(t, p, "EXPLAIN ANALYZE "+insertAgeModel)
	rows := decodeExplain(t, rs)
	tr := findOp(rows, "train")
	if tr == nil {
		t.Fatalf("measured INSERT tree misses train span (have %s)", operators(rows))
	}
	if tr.rows.(int64) != 30 {
		t.Errorf("train span rows = %v, want 30", tr.rows)
	}
	if findOp(rows, "tokenize") == nil || findOp(rows, "discretize") == nil || findOp(rows, "bind") == nil {
		t.Errorf("INSERT tree misses bind/tokenize/discretize spans (have %s)", operators(rows))
	}
	mustExec(t, p, predictAgeQuery) // trained: predicts without error
}

// TestExplainAnalyzeInsertPartitioned: over more cases than one range, the
// INSERT's tokenize and discretize run in case ranges on the statement's
// workers, and their spans say so the way a scan's does; both sit under train,
// and EXPLAIN lists the same operators EXPLAIN ANALYZE measures.
func TestExplainAnalyzeInsertPartitioned(t *testing.T) {
	p := MustNew(WithParallelism(2))
	setupCustomerData(t, p, manyCustomers)
	mustExec(t, p, createAgeModel)
	plan := decodeExplain(t, mustExec(t, p, "EXPLAIN "+insertAgeModel))
	rows := decodeExplain(t, mustExec(t, p, "EXPLAIN ANALYZE "+insertAgeModel))
	if got, want := operators(rows), operators(plan); got != want {
		t.Errorf("EXPLAIN ANALYZE lists %s, EXPLAIN %s", got, want)
	}
	tr := findOp(rows, "train")
	wantLabel := fmt.Sprintf("morsels=%d workers=2", core.Ranges(manyCustomers))
	for _, op := range []string{"tokenize", "discretize"} {
		sp := findOp(rows, op)
		if sp == nil || tr == nil {
			t.Fatalf("measured INSERT tree misses train/%s (have %s)", op, operators(rows))
		}
		if sp.label != wantLabel || sp.parentID != tr.spanID || sp.rows.(int64) != manyCustomers {
			t.Errorf("%s span: label %q under span %d with %v rows; want %q under train (%d), %d rows",
				op, sp.label, sp.parentID, sp.rows, wantLabel, tr.spanID, manyCustomers)
		}
	}
}

// TestExplainSQLAndShape: non-DMX commands explain too, re-dispatched by
// prefix exactly like unprefixed execution.
func TestExplainSQLAndShape(t *testing.T) {
	p := MustNew()
	setupCustomerData(t, p, 20)

	rows := decodeExplain(t, mustExec(t, p,
		"EXPLAIN SELECT Gender, COUNT(*) FROM Customers WHERE Age > 30 GROUP BY Gender"))
	for _, op := range []string{"select", "scan", "filter", "group-by"} {
		if findOp(rows, op) == nil {
			t.Errorf("SQL plan misses %q (have %s)", op, operators(rows))
		}
	}
	if rows[0].label != "SQL" {
		t.Errorf("root label = %q, want SQL", rows[0].label)
	}

	rows = decodeExplain(t, mustExec(t, p, `EXPLAIN ANALYZE SHAPE
		{SELECT [Customer ID] FROM Customers}
		APPEND ({SELECT CustID, Quantity FROM Sales} RELATE [Customer ID] TO [CustID]) AS [Purchases]`))
	for _, op := range []string{"shape", "append", "select", "scan"} {
		if findOp(rows, op) == nil {
			t.Errorf("SHAPE tree misses %q (have %s)", op, operators(rows))
		}
	}
	if sh := findOp(rows, "shape"); sh.rows.(int64) != 20 {
		t.Errorf("shape span rows = %v, want 20", sh.rows)
	}
}

// TestExplainErrors: malformed EXPLAIN forms are rejected at parse time.
func TestExplainErrors(t *testing.T) {
	p := MustNew()
	setupCustomerData(t, p, 5)
	for _, src := range []string{
		"EXPLAIN",
		"EXPLAIN ANALYZE",
		"EXPLAIN EXPLAIN SELECT Gender FROM Customers",
		"EXPLAIN ANALYZE EXPLAIN SELECT Gender FROM Customers",
	} {
		if _, err := p.Execute(src); err == nil {
			t.Errorf("Execute(%q) succeeded, want parse error", src)
		}
	}
}

// TestFlightRecorderRowsetJoinsQueryLog: $SYSTEM.DM_FLIGHT_RECORDER retains
// recent statements' span trees and joins DM_QUERY_LOG on SEQ.
func TestFlightRecorderRowsetJoinsQueryLog(t *testing.T) {
	p := MustNew()
	setupCustomerData(t, p, 40)
	mustExec(t, p, createAgeModel)
	mustExec(t, p, insertAgeModel)
	mustExec(t, p, predictAgeQuery)

	rs := mustExec(t, p, "SELECT * FROM $SYSTEM.DM_FLIGHT_RECORDER")
	ord := func(name string) int {
		o, ok := rs.Schema().Lookup(name)
		if !ok {
			t.Fatalf("DM_FLIGHT_RECORDER misses column %s", name)
		}
		return o
	}
	seqs := map[int64]map[string]bool{}
	for _, r := range rs.Rows() {
		seq := r[ord("SEQ")].(int64)
		if seqs[seq] == nil {
			seqs[seq] = map[string]bool{}
		}
		seqs[seq][r[ord("OPERATOR")].(string)] = true
	}
	// Every retained span tree's SEQ must match a DM_QUERY_LOG record. (The
	// DM_FLIGHT_RECORDER select itself is not yet finished, so it is absent.)
	var predictSeq int64
	logged := map[int64]bool{}
	for _, rec := range p.Obs().QueryLog().Snapshot() {
		logged[rec.Seq] = true
		if rec.Kind == "PREDICT" {
			predictSeq = rec.Seq
		}
	}
	for seq := range seqs {
		if !logged[seq] {
			t.Errorf("retained SEQ %d joins no DM_QUERY_LOG record", seq)
		}
	}
	if predictSeq == 0 {
		t.Fatal("no PREDICT record in query log")
	}
	ops := seqs[predictSeq]
	for _, op := range []string{"statement", "caseset", "predict", "scan"} {
		if !ops[op] {
			t.Errorf("PREDICT trace (seq %d) misses operator %q (have %v)", predictSeq, op, ops)
		}
	}
	if len(seqs) < 4 {
		t.Errorf("DM_FLIGHT_RECORDER retains %d statements, want at least 4", len(seqs))
	}
}
