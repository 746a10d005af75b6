package sqlengine

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/rowset"
	"repro/internal/storage"
)

// joinIndexLabel runs q traced and returns the label of the right input's
// scan of its one join.
func joinIndexLabel(t *testing.T, e *Engine, q string) string {
	t.Helper()
	scans := findSpans(runTraced(t, e, q), "scan")
	if len(scans) != 2 {
		t.Fatalf("%s: scan spans %v, want two", q, scans)
	}
	return scans[1]
}

// checkOracle runs q on the engine and on the reference executor and fails
// when they differ.
func checkOracle(t *testing.T, e *Engine, q string) {
	t.Helper()
	stmt, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracleQuery(e, stmt.(*SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	diffRowsets(t, q, got, want)
}

// TestJoinSeesWrites: a hash join over a stored table reuses its key index
// only while the table is unchanged. After an INSERT, an UPDATE and a DELETE
// with a predicate (Replace), and a DELETE of every row (Truncate), the next
// join builds a new index, and every join returns what the reference
// executor returns.
func TestJoinSeesWrites(t *testing.T) {
	e := NewEngine(storage.NewDatabase())
	for _, q := range []string{
		"CREATE TABLE T (a LONG, g TEXT)",
		"INSERT INTO T VALUES (1, 'x'), (2, 'y'), (3, 'x'), (4, 'z'), (5, 'y')",
		"CREATE TABLE U (k LONG, c DOUBLE)",
		"INSERT INTO U VALUES (1, 0.5), (2, 1.5), (2, 2.5), (NULL, 9.5)",
	} {
		mustQuery(t, e, q)
	}
	const (
		join = "SELECT T.a, T.g, U.c FROM T JOIN U ON T.a = U.k ORDER BY T.a, U.c"
		left = "SELECT T.g, COUNT(*), COUNT(U.c), SUM(U.c) FROM T LEFT JOIN U ON T.a = U.k GROUP BY T.g"
	)
	for _, write := range []string{
		"",
		"INSERT INTO U VALUES (3, 4.5), (5, 5.5)",
		"UPDATE U SET k = 4 WHERE k = 1",
		"DELETE FROM U WHERE c > 2",
		"DELETE FROM U",
		"INSERT INTO U VALUES (5, 6.5)",
	} {
		if write != "" {
			mustQuery(t, e, write)
		}
		if l := joinIndexLabel(t, e, join); !strings.Contains(l, "join-index=built") {
			t.Errorf("after %q: first join's right scan = %q, want the index built", write, l)
		}
		if l := joinIndexLabel(t, e, join); !strings.Contains(l, "join-index=reused") {
			t.Errorf("after %q: second join's right scan = %q, want the index reused", write, l)
		}
		checkOracle(t, e, join)
		checkOracle(t, e, left)
	}
}

// TestJoinIndexPerKeyKind: U.k joined with a LONG (LONG = LONG keys) and with
// a DOUBLE (LONG = DOUBLE keys) gets one index each, both cached, and each
// join matches as rowset.Key equality does: 2.0 meets 2, 2.5 meets nothing.
func TestJoinIndexPerKeyKind(t *testing.T) {
	e := NewEngine(storage.NewDatabase())
	for _, q := range []string{
		"CREATE TABLE T (a LONG)",
		"INSERT INTO T VALUES (1), (2), (3)",
		"CREATE TABLE V (d DOUBLE)",
		"INSERT INTO V VALUES (2.0), (2.5), (3.0)",
		"CREATE TABLE U (k LONG, c TEXT)",
		"INSERT INTO U VALUES (2, 'two'), (3, 'three'), (2, 'deux')",
	} {
		mustQuery(t, e, q)
	}
	long := "SELECT T.a, U.c FROM T JOIN U ON T.a = U.k"
	double := "SELECT V.d, U.c FROM V JOIN U ON V.d = U.k"
	for range 2 {
		checkOracle(t, e, long)
		checkOracle(t, e, double)
	}
	u, _ := e.DB.Table("U")
	byLong, byFloat := u.CachedKeyIndex(0, rowset.KeyLong), u.CachedKeyIndex(0, rowset.KeyFloat)
	if byLong == nil || byFloat == nil || byLong == byFloat {
		t.Errorf("cached indexes: LONG = LONG %p, LONG = DOUBLE %p; want two", byLong, byFloat)
	}
	if l := joinIndexLabel(t, e, double); !strings.Contains(l, "join-index=reused") {
		t.Errorf("LONG = DOUBLE join after two runs: right scan = %q, want the index reused", l)
	}
}

// TestJoinIndexCancelledBuildCachesNothing: a statement cancelled inside its
// join index build (the trace ends at the right input's scan) leaves the
// table with no cached index, so the next statement builds it again.
func TestJoinIndexCancelledBuildCachesNothing(t *testing.T) {
	e := newBigEngine(t, 100)
	mustQuery(t, e, "CREATE TABLE Many (id LONG)")
	many, _ := e.DB.Table("Many")
	rows := make([]rowset.Row, 50000)
	for i := range rows {
		rows[i] = rowset.Row{int64(i % 5000)}
	}
	if err := many.InsertMany(rows); err != nil {
		t.Fatal(err)
	}
	e.Workers = 2
	const q = "SELECT COUNT(*) FROM Big JOIN Many ON Big.id = Many.id"
	for n := int64(1); ; n++ {
		tr := obs.NewTrace(q, "")
		ctx := newTripCtx(n)
		_, err := e.ExecContext(obs.WithTrace(ctx, tr), q)
		ctx.cancel()
		if err == nil {
			t.Fatalf("the statement finished under a cancellation at poll %d, none inside the index build", n)
		}
		if spanKinds(tr.Root()) == "statement,select,scan,scan" {
			if many.CachedKeyIndex(0, rowset.KeyLong) != nil {
				t.Errorf("cancelled inside the build at poll %d, yet the index was cached", n)
			}
			break
		}
	}
	if l := joinIndexLabel(t, e, q); !strings.Contains(l, "join-index=built") {
		t.Errorf("after the cancelled build: right scan = %q, want the index built", l)
	}
}

// TestJoinIndexCacheMatchesColdBuild: a join on a cached index returns the
// bytes a join on a freshly built one does, at Workers 1, 2 and 8 and at
// 16-row and full-size partitions (a DOUBLE sum may differ in its last bits
// between partition sizes, never between workers or runs). Replacing a
// table's rows with themselves drops its cache without changing its data, so
// each setting runs cold and then warm.
func TestJoinIndexCacheMatchesColdBuild(t *testing.T) {
	e := bigTable(t, 3000)
	addJoinTable(t, e, 2000)
	var tables []*storage.Table
	for _, name := range []string{"T", "U"} {
		tbl, _ := e.DB.Table(name)
		tables = append(tables, tbl)
	}
	cold := func() {
		for _, tbl := range tables {
			if err := tbl.Replace(tbl.Snapshot()); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, q := range []string{
		"SELECT T.a, U.h, U.c FROM T JOIN U ON T.a = U.k",
		"SELECT T.a, U.h, U.c FROM T LEFT JOIN U ON T.a = U.k WHERE T.g <> 'b'",
		"SELECT T.a, U.c + 1 FROM T LEFT JOIN U ON T.a = U.k",
		"SELECT T.g, COUNT(*), COUNT(U.c), SUM(U.c), AVG(T.b) FROM T LEFT JOIN U ON T.a = U.k GROUP BY T.g",
		"SELECT U.h, COUNT(*), SUM(T.b) FROM U JOIN T ON U.k = T.a GROUP BY U.h",
		"SELECT T.a, U.k FROM T JOIN U ON T.b = U.k",
		"SELECT T.g, U.h, COUNT(*) FROM T JOIN U ON T.g = U.h GROUP BY T.g, U.h",
		"SELECT T.a, U.h, x.g FROM T JOIN U ON T.a = U.k JOIN T AS x ON U.k = x.a",
	} {
		want := make(map[int][]byte)
		for _, workers := range []int{1, 2, 8} {
			for _, partRows := range []int{smallPartRows, storage.DefaultMorselSize} {
				cold()
				for _, run := range []string{"cold", "warm"} {
					e.Workers = workers
					rs, err := queryAt(context.Background(), e, q, partRows)
					if err != nil {
						t.Fatalf("%s: %v", q, err)
					}
					var buf bytes.Buffer
					if err := rs.Encode(&buf); err != nil {
						t.Fatal(err)
					}
					if want[partRows] == nil {
						want[partRows] = buf.Bytes()
					} else if !bytes.Equal(buf.Bytes(), want[partRows]) {
						t.Errorf("%s: %s run at workers=%d, %d-row partitions differs from the first", q, run, workers, partRows)
					}
				}
			}
		}
	}
}

// TestLeftJoinReusedRowsNull: a LEFT JOIN feeding an aggregate or a computed
// projection writes each batch's joined rows over the last batch's, and an
// unmatched row that lands where a matched one was reads NULL on its right
// half. T's first 1100 rows each meet one U row, so the first output batch is
// all matched and the second starts with matched rows and goes on unmatched.
func TestLeftJoinReusedRowsNull(t *testing.T) {
	e := bigTable(t, 2500)
	mustQuery(t, e, "CREATE TABLE U (k LONG, c DOUBLE)")
	u, _ := e.DB.Table("U")
	for i := range 1100 {
		if err := u.Insert(rowset.Row{int64(i), float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	rs := mustQuery(t, e, "SELECT COUNT(*), COUNT(U.c), SUM(U.k) FROM T LEFT JOIN U ON T.a = U.k")
	if got, want := fmt.Sprint(rs.Row(0)), fmt.Sprint(rowset.Row{int64(2500), int64(1100), int64(1099 * 1100 / 2)}); got != want {
		t.Errorf("aggregate over the LEFT JOIN = %s, want %s", got, want)
	}
	rs = mustQuery(t, e, "SELECT T.a, U.c * 2 FROM T LEFT JOIN U ON T.a = U.k")
	for i, r := range rs.Rows() {
		var want rowset.Value // NULL: T's rows from 1100 on meet no U row
		if i < 1100 {
			want = float64(2 * i)
		}
		if r[1] != want {
			t.Fatalf("row %d = %v, want %v on its right half", i, r, want)
		}
	}
}

// TestJoinsBesideInserts: joins and a join feeding GROUP BY run until
// another goroutine has inserted every row into the indexed table. Each
// statement sees one snapshot of it, so its match count never falls and stays
// within what was inserted; the last one sees every row. Run under -race.
func TestJoinsBesideInserts(t *testing.T) {
	e := bigTable(t, 1000)
	mustQuery(t, e, "CREATE TABLE U (k LONG, c DOUBLE)")
	u, _ := e.DB.Table("U")
	const inserts = 20000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range inserts {
			if err := u.Insert(rowset.Row{int64(i % 1000), 1.0}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	e.Workers = 2
	var wg sync.WaitGroup
	for _, q := range []string{
		"SELECT COUNT(*) FROM T JOIN U ON T.a = U.k",
		"SELECT T.g, COUNT(*) FROM T JOIN U ON T.a = U.k GROUP BY T.g",
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := int64(0)
			for finished := false; !finished; {
				select {
				case <-done:
					finished = true
				default:
				}
				rs, err := e.Exec(q)
				if err != nil {
					t.Error(err)
					return
				}
				n := int64(0)
				for _, r := range rs.Rows() {
					n += r[len(r)-1].(int64)
				}
				if n < last || n > inserts || finished && n != inserts {
					t.Errorf("%s: %d matches after %d", q, n, last)
				}
				last = n
			}
		}()
	}
	wg.Wait()
}

// TestPointProbeSharesJoinIndex: declaring an index builds nothing; a pushed
// point probe on [Customer ID] reads the column's cached key index, so a
// LONG = LONG join on that column plans and runs it reused, and after an
// INSERT the next probe sees the new row.
func TestPointProbeSharesJoinIndex(t *testing.T) {
	e := NewEngine(storage.NewDatabase())
	for _, q := range []string{
		"CREATE TABLE T (a LONG)",
		"INSERT INTO T VALUES (1), (2), (3)",
		"CREATE TABLE Customers ([Customer ID] LONG, Gender TEXT)",
		"INSERT INTO Customers VALUES (1, 'F'), (2, 'M'), (3, 'F')",
	} {
		mustQuery(t, e, q)
	}
	c, _ := e.DB.Table("Customers")
	if err := c.CreateIndex("Customer ID"); err != nil {
		t.Fatal(err)
	}
	if c.CachedKeyIndex(0, rowset.KeyLong) != nil {
		t.Fatal("CreateIndex built the key index")
	}
	const point = "SELECT Gender FROM Customers WHERE [Customer ID] = 2"
	if scans := findSpans(runTraced(t, e, point), "scan"); len(scans) != 1 || !strings.Contains(scans[0], "index=Customer ID") {
		t.Fatalf("point probe scan = %v, want the index on Customer ID", scans)
	}
	if c.CachedKeyIndex(0, rowset.KeyLong) == nil {
		t.Fatal("the point probe left no key index cached")
	}
	const join = "SELECT T.a, Customers.Gender FROM T JOIN Customers ON T.a = Customers.[Customer ID]"
	st, err := Parse(join)
	if err != nil {
		t.Fatal(err)
	}
	if scans := findSpans(e.PlanSpan(t.Context(), st.(*SelectStmt)), "scan"); len(scans) != 2 || !strings.Contains(scans[1], "join-index=reused") {
		t.Errorf("planned join scans = %v, want the right input's index reused", scans)
	}
	if l := joinIndexLabel(t, e, join); !strings.Contains(l, "join-index=reused") {
		t.Errorf("join after the point probe: right scan = %q, want the index reused", l)
	}
	mustQuery(t, e, "INSERT INTO Customers VALUES (2, 'X')")
	if rs := mustQuery(t, e, point); rs.Len() != 2 || rs.Row(1)[0] != "X" {
		t.Errorf("probe after INSERT = %v, want M and the new X", rs.Rows())
	}
}
