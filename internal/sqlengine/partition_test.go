package sqlengine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/rowset"
	"repro/internal/storage"
)

// smallPartRows is the partition size the tests pass to Engine.query so the
// 70- and 90-row differential fixtures run through five and six partitions.
const smallPartRows = 16

// queryAt parses q afresh (plans must not leak state across runs) and runs it
// with partRows-row partitions.
func queryAt(ctx context.Context, e *Engine, q string, partRows int) (*rowset.Rowset, error) {
	stmt, err := Parse(q)
	if err != nil {
		return nil, err
	}
	return e.query(ctx, stmt.(*SelectStmt), nil, partRows)
}

// TestPartitionRule pins down the partition rule: a full scan of a base table
// is cut into partRows-row ranges whatever the statement does downstream —
// filter, hash joins, ORDER BY, DISTINCT, any aggregate — while index probes,
// loop and cross joins, views, FROM-less statements and streaming TOP run as
// one partition. The layout never depends on the worker count.
func TestPartitionRule(t *testing.T) {
	cases := []struct {
		q          string
		partitions int64 // sql_morsels_total after the statement; 0 = one partition
	}{
		{"SELECT name FROM C WHERE age > 30", 5},
		{"SELECT city, COUNT(*), SUM(score), AVG(age), MIN(id), MAX(id) FROM C GROUP BY city", 5},
		{"SELECT COUNT(*) FROM C", 5},
		{"SELECT city, COUNT(*) FROM C GROUP BY city ORDER BY city", 5},
		{"SELECT name FROM C ORDER BY age", 5},
		{"SELECT DISTINCT city FROM C", 5},
		{"SELECT COUNT(DISTINCT city) FROM C", 5},
		{"SELECT STDEV(score), VAR(score) FROM C", 5},
		{"SELECT oid FROM O", 6},
		{"SELECT name FROM C WHERE city = 'rome' OR id = 1", 5}, // OR blocks pushdown
		{"SELECT TOP 5 name FROM C ORDER BY age", 5},            // the sort needs every row anyway
		{"SELECT TOP 2 city, COUNT(*) FROM C GROUP BY city", 5}, // so does the grouping
		{"SELECT TOP 5 name FROM C", 0},                         // streaming TOP keeps its early exit
		{"SELECT DISTINCT TOP 3 city FROM C WHERE age > 20", 0},
		{"SELECT name FROM C WHERE city = 'rome'", 0},      // index probe
		{"SELECT C.name FROM C JOIN O ON C.id = O.cid", 5}, // the probe side partitions
		{"SELECT C.name FROM C JOIN O ON C.id < O.cid", 0}, // a loop join does not
		{"SELECT C.name FROM C JOIN O ON C.id = O.cid JOIN V ON C.id = V.id", 5},
		{"SELECT C.name FROM C LEFT JOIN O ON C.id = O.cid, V", 0}, // nor a cross join
		{"SELECT V.id FROM V JOIN C ON V.id = C.id", 0},            // a view probes as one partition
		{"SELECT TOP 5 C.name FROM C JOIN O ON C.id = O.cid", 0},
		{"SELECT C.name FROM C JOIN O ON C.id = O.cid WHERE O.cid = 3", 5},       // an index probe builds
		{"SELECT C.name FROM C JOIN O ON C.id = O.cid WHERE C.city = 'rome'", 0}, // but does not probe
		{"SELECT id FROM V", 0},                                                  // the view's body runs at the default partition size
		{"SELECT 1 + 2", 0},
		{"SELECT id FROM T16", 0}, // exactly one range
		{"SELECT id FROM T17", 2},
	}
	e := differentialDB(t)
	for _, n := range []int{16, 17} {
		name := fmt.Sprintf("T%d", n)
		if _, err := e.Exec("CREATE TABLE " + name + " (id LONG)"); err != nil {
			t.Fatal(err)
		}
		tbl, _ := e.DB.Table(name)
		for i := 0; i < n; i++ {
			if err := tbl.Insert(rowset.Row{int64(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, workers := range []int{1, 4} {
		e.Workers = workers
		for _, c := range cases {
			reg := obs.NewRegistry()
			e.Instrument(reg)
			if _, err := queryAt(context.Background(), e, c.q, smallPartRows); err != nil {
				t.Fatalf("%s: %v", c.q, err)
			}
			if got := reg.Counter(obs.MetricSQLMorselsTotal).Value(); got != c.partitions {
				t.Errorf("workers=%d %s: %d partitions, want %d", workers, c.q, got, c.partitions)
			}
			wantScans := int64(0)
			if c.partitions > 0 {
				wantScans = 1
			}
			if got := reg.Counter(obs.MetricSQLParallelScansTotal).Value(); got != wantScans {
				t.Errorf("workers=%d %s: sql_parallel_scans_total = %d, want %d", workers, c.q, got, wantScans)
			}
		}
	}
}

// TestPartitionedCancellation: a pre-cancelled context aborts a partitioned
// statement before any partition runs.
func TestPartitionedCancellation(t *testing.T) {
	e := differentialDB(t)
	e.Workers = 4
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, q := range []string{
		"SELECT city, COUNT(*) FROM C GROUP BY city",
		"SELECT name FROM C WHERE age > 20",
	} {
		if _, err := queryAt(ctx, e, q, smallPartRows); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", q, err)
		}
	}
}

// TestPartitionedSpanShape: a partitioned statement records the same span
// kinds in the same order as a single-partition one (scan → filter →
// group-by), rows summed over the partitions, with the scan label carrying
// the fan-out so EXPLAIN ANALYZE shows it.
func TestPartitionedSpanShape(t *testing.T) {
	e := differentialDB(t)
	e.Workers = 4
	tr := obs.NewTrace("q", "")
	ctx := obs.WithTrace(context.Background(), tr)
	if _, err := queryAt(ctx, e, "SELECT city, COUNT(*) FROM C WHERE age > 20 GROUP BY city", smallPartRows); err != nil {
		t.Fatal(err)
	}
	sel := tr.Root().Children[0]
	if kinds := spanKinds(sel); kinds != "select,scan,filter,group-by" {
		t.Fatalf("span kinds = %s", kinds)
	}
	scan, filter := sel.Children[0], sel.Children[1]
	if !strings.Contains(scan.Label, "morsels=5 workers=4") {
		t.Errorf("scan label %q missing the fan-out", scan.Label)
	}
	if scan.Rows != 70 {
		t.Errorf("scan rows = %d, want 70", scan.Rows)
	}
	want, err := e.Exec("SELECT COUNT(*) FROM C WHERE age > 20")
	if err != nil {
		t.Fatal(err)
	}
	if filter.Rows != want.Row(0)[0] {
		t.Errorf("filter rows = %d, want %v", filter.Rows, want.Row(0)[0])
	}
}

// bigTable builds T (a LONG, g TEXT, b DOUBLE) with n rows whose DOUBLE
// column is 0.1*i — not exact in binary, so any reassociation of its sums
// shows in the last bits — with a NULL every 19th row.
func bigTable(t testing.TB, n int) *Engine {
	t.Helper()
	e := NewEngine(storage.NewDatabase())
	if _, err := e.Exec("CREATE TABLE T (a LONG, g TEXT, b DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.DB.Table("T")
	for i := 0; i < n; i++ {
		var b rowset.Value = 0.1 * float64(i)
		if i%19 == 0 {
			b = nil
		}
		if err := tbl.Insert(rowset.Row{int64(i), string(rune('a' + i%5)), b}); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// addJoinTable adds U (k LONG, h TEXT, c DOUBLE) with n rows to bigTable's
// engine: k = 7i mod 9000, so T's rows below 9000 meet one or two U rows and
// the rest none; a NULL k every 23rd row; c = 0.3*i, not exact in binary.
func addJoinTable(t testing.TB, e *Engine, n int) {
	t.Helper()
	if _, err := e.Exec("CREATE TABLE U (k LONG, h TEXT, c DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.DB.Table("U")
	for i := 0; i < n; i++ {
		var k rowset.Value = int64(i * 7 % 9000)
		if i%23 == 0 {
			k = nil
		}
		if err := tbl.Insert(rowset.Row{k, string(rune('p' + i%3)), 0.3 * float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResultsIndependentOfWorkers: a result is a function of the data, never
// of the worker count. Every statement shape — filter, sort, DISTINCT, hash
// joins, and aggregates including SUM/AVG/STDEV over doubles that are not
// exact in binary — must encode to identical bytes with 1, 2 and 8 workers
// over tables of several partitions. The joins must have partitioned.
func TestResultsIndependentOfWorkers(t *testing.T) {
	e := bigTable(t, 20000)
	addJoinTable(t, e, 12000)
	reg := obs.NewRegistry()
	e.Instrument(reg)
	morsels := reg.Counter(obs.MetricSQLMorselsTotal)
	for _, q := range []string{
		"SELECT a, b FROM T WHERE a > 100 AND g = 'c'",
		"SELECT a, g, b FROM T WHERE b > 500.5 ORDER BY b DESC, a",
		"SELECT TOP 10 a FROM T WHERE g = 'b'",
		"SELECT DISTINCT g FROM T",
		"SELECT SUM(b), AVG(b) FROM T WHERE a < 15000",
		"SELECT g, SUM(b), AVG(b) FROM T GROUP BY g",
		"SELECT SUM(b), AVG(b), STDEV(b), VAR(b), COUNT(b), COUNT(*) FROM T",
		"SELECT g, COUNT(*), SUM(b), AVG(b), MIN(b), MAX(a), STDEV(b) FROM T GROUP BY g",
		"SELECT g, SUM(DISTINCT b), COUNT(DISTINCT a) FROM T WHERE a < 9000 GROUP BY g ORDER BY SUM(b) DESC",
		"SELECT COUNT(*) FROM T WHERE b IS NULL",
		"SELECT T.a, U.h, U.c FROM T JOIN U ON T.a = U.k WHERE T.g = 'c'",
		"SELECT T.a, U.h, U.c FROM T LEFT JOIN U ON T.a = U.k",
		"SELECT T.a, U.h, x.g FROM T JOIN U ON T.a = U.k JOIN T AS x ON U.k = x.a",
		"SELECT T.g, COUNT(*), SUM(U.c), AVG(U.c), STDEV(U.c), SUM(T.b) FROM T JOIN U ON T.a = U.k GROUP BY T.g",
		"SELECT U.h, T.g, COUNT(*), SUM(T.b), AVG(T.b), STDEV(T.b) FROM U JOIN T ON U.k = T.a GROUP BY U.h, T.g",
	} {
		before := morsels.Value()
		var want []byte
		for _, workers := range []int{1, 2, 8} {
			e.Workers = workers
			rs, err := e.Exec(q)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, q, err)
			}
			var buf bytes.Buffer
			if err := rs.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = buf.Bytes()
			} else if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s: result with %d workers differs from the 1-worker result", q, workers)
			}
		}
		if strings.Contains(q, "JOIN") && morsels.Value() == before {
			t.Errorf("%s: ran as one partition", q)
		}
	}
}

// TestJoinFanoutInPlan: EXPLAIN's join label carries the fan-out of the
// partitions that probe the index, from the same function execution labels
// the join span with.
func TestJoinFanoutInPlan(t *testing.T) {
	e := bigTable(t, 20000)
	addJoinTable(t, e, 12000)
	e.Workers = 2
	const q = "SELECT T.g, SUM(U.c) FROM T JOIN U ON T.a = U.k GROUP BY T.g"
	st, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	plan := findSpans(e.PlanSpan(context.Background(), st.(*SelectStmt)), "join")
	if len(plan) != 1 || plan[0] != "inner hash morsels=5 workers=2" {
		t.Fatalf("planned join label = %v, want [inner hash morsels=5 workers=2]", plan)
	}
	tr := obs.NewTrace(q, "")
	if _, err := e.ExecContext(obs.WithTrace(context.Background(), tr), q); err != nil {
		t.Fatal(err)
	}
	if exec := findSpans(tr.Root(), "join"); len(exec) != 1 || !strings.HasPrefix(exec[0], plan[0]+" batches=") {
		t.Errorf("executed join label = %v, want the planned label and its batches", exec)
	}
}

// TestTopStopsEarly: TOP n without ORDER BY stops after O(n) source rows at
// every worker count — the statement runs as one streaming partition, so the
// scan hands out at most one batch however large the table is. Over a cross
// join that is the left scan: the nested loop stops at a batch of pairs and
// never comes back for the second left batch.
func TestTopStopsEarly(t *testing.T) {
	e := bigTable(t, 50000)
	for _, workers := range []int{1, 4} {
		for _, q := range []string{
			"SELECT TOP 5 a, b FROM T",
			"SELECT TOP 5 a FROM T WHERE g = 'd'",
			"SELECT DISTINCT TOP 3 g FROM T",
			"SELECT TOP 5 x.a, y.b FROM T AS x, T AS y",
		} {
			e.Workers = workers
			reg := obs.NewRegistry()
			e.Instrument(reg)
			tr := obs.NewTrace("q", "")
			rs, err := e.ExecContext(obs.WithTrace(context.Background(), tr), q)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, q, err)
			}
			if rs.Len() == 0 {
				t.Fatalf("workers=%d %s: no rows", workers, q)
			}
			if n := reg.Counter(obs.MetricSQLBatchesTotal).Value(); n > 1 {
				t.Errorf("workers=%d %s: %d batches flowed, want at most 1", workers, q, n)
			}
			scan := tr.Root().Children[0].Children[0]
			if scan.Kind != "scan" || scan.Rows > rowset.DefaultBatchSize {
				t.Errorf("workers=%d %s: %s span read %d rows, want at most one batch (%d)",
					workers, q, scan.Kind, scan.Rows, rowset.DefaultBatchSize)
			}
		}
	}
}

// TestTopZero: TOP 0 is a TOP clause — no rows, the columns intact — not the
// absence of one, and the streaming form never reads the table.
func TestTopZero(t *testing.T) {
	e := bigTable(t, 2000)
	for q, cols := range map[string]string{
		"SELECT TOP 0 a, b FROM T":                        "a b",
		"SELECT TOP 0 a FROM T WHERE g = 'd' ORDER BY b":  "a",
		"SELECT TOP 0 g, COUNT(*) AS n FROM T GROUP BY g": "g n",
		"SELECT DISTINCT TOP 0 g FROM T":                  "g",
	} {
		tr := obs.NewTrace("q", "")
		rs, err := e.ExecContext(obs.WithTrace(context.Background(), tr), q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if rs.Len() != 0 || strings.Join(rs.Schema().Names(), " ") != cols {
			t.Errorf("%s: %d rows under columns %v, want none under %q", q, rs.Len(), rs.Schema().Names(), cols)
		}
		if scan := tr.Root().Children[0].Children[0]; q == "SELECT TOP 0 a, b FROM T" && scan.Rows != 0 {
			t.Errorf("%s: scan read %d rows, want 0", q, scan.Rows)
		}
	}
}

// TestPartitionedLargeTable pushes a table past DefaultBatchSize and the
// partition size so multi-batch, multi-partition merging is exercised with a
// filter's selection vectors in play; the table is below the default
// partition size, so the plain engine answers from a single partition.
func TestPartitionedLargeTable(t *testing.T) {
	e := bigTable(t, 3*rowset.DefaultBatchSize+77)
	e.Workers = 4
	for _, q := range []string{
		"SELECT a, b FROM T WHERE a > 100 AND g = 'c'",
		"SELECT g, COUNT(*), MIN(b), MAX(a), STDEV(b) FROM T WHERE b IS NOT NULL GROUP BY g",
		"SELECT COUNT(*) FROM T WHERE b IS NULL",
		"SELECT TOP 10 a FROM T WHERE g = 'b'",
		"SELECT a FROM T WHERE g = 'e' ORDER BY b DESC",
	} {
		want, err := e.Exec(q)
		if err != nil {
			t.Fatalf("%s: one partition: %v", q, err)
		}
		got, err := queryAt(context.Background(), e, q, 512)
		if err != nil {
			t.Fatalf("%s: 512-row partitions: %v", q, err)
		}
		diffRowsets(t, q, got, want)
	}
}

// TestJoinRowsCarryWhatIsReadAfter: a hash join's rows keep the columns the
// statement reads after it — not a key column only its own or an earlier
// join's ON reads, but one a later ON or the select list reads. A loop join
// keeps what any of the statement reads, SELECT * every column.
func TestJoinRowsCarryWhatIsReadAfter(t *testing.T) {
	e := bigTable(t, 10)
	addJoinTable(t, e, 10)
	if _, err := e.Exec("CREATE TABLE V (vk LONG, vn TEXT)"); err != nil {
		t.Fatal(err)
	}
	for q, want := range map[string]string{
		"SELECT T.g, SUM(U.c) FROM T JOIN U ON T.a = U.k GROUP BY T.g":     "[T.g U.c]",
		"SELECT T.g, V.vn FROM T JOIN U ON T.a = U.k JOIN V ON U.k = V.vk": "[T.g U.k] [T.g V.vn]",
		"SELECT T.a, U.c FROM T JOIN U ON T.a = U.k":                       "[T.a U.c]",
		"SELECT * FROM T JOIN U ON T.a = U.k":                              "[T.a T.g T.b U.k U.h U.c]",
		"SELECT T.g, COUNT(*) FROM T JOIN U ON T.a + 1 = U.k GROUP BY T.g": "[T.a T.g U.k]",
	} {
		st, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		fc, err := e.resolveFrom(context.Background(), st.(*SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, j := range fc.joins {
			got = append(got, fmt.Sprint(j.schema.Names()))
		}
		if strings.Join(got, " ") != want {
			t.Errorf("%s: joined rows %v, want %s", q, got, want)
		}
	}
}
