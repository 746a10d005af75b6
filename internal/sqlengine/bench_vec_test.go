package sqlengine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/rowset"
	"repro/internal/storage"
)

// benchTable builds one table shaped like the dmbench warehouse scan target:
// an integer key, a low-cardinality group column, and a numeric measure.
func benchTable(b *testing.B, n int) *Engine {
	b.Helper()
	e := NewEngine(storage.NewDatabase())
	if _, err := e.Exec("CREATE TABLE T (id LONG, g TEXT, age DOUBLE)"); err != nil {
		b.Fatal(err)
	}
	var ins strings.Builder
	ins.WriteString("INSERT INTO T VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			ins.WriteString(", ")
		}
		fmt.Fprintf(&ins, "(%d, 'g%d', %d)", i, i%2, 18+i%60)
	}
	if _, err := e.Exec(ins.String()); err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkScanFilterOrderBy is the sql-scan workload shape: filter plus sort.
func BenchmarkScanFilterOrderBy(b *testing.B) {
	e := benchTable(b, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Exec("SELECT id, g, age FROM T WHERE age > 30 ORDER BY age"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanWideFilter is the scan-wide-filter workload shape: conjunctive
// predicate, no sort.
func BenchmarkScanWideFilter(b *testing.B) {
	e := benchTable(b, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Exec("SELECT id, g, age FROM T WHERE age > 21 AND age < 60 AND g = 'g1' AND id > 0"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupByAgg is the group-by-agg workload shape: mergeable
// aggregates over a low-cardinality key.
func BenchmarkGroupByAgg(b *testing.B) {
	e := benchTable(b, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Exec("SELECT g, COUNT(*), AVG(age), MIN(age), MAX(age) FROM T GROUP BY g"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPointIndexed is the point-lookup shape: an index probe on id plus
// a residual conjunct, one row out. Its allocs/op is the per-statement cost
// of the batch protocol on the smallest input there is.
func BenchmarkPointIndexed(b *testing.B) {
	const n = 5000
	e := benchTable(b, n)
	tbl, err := e.DB.Table("T")
	if err != nil {
		b.Fatal(err)
	}
	if err := tbl.CreateIndex("id"); err != nil {
		b.Fatal(err)
	}
	stmts := make([]Statement, 64)
	for i := range stmts {
		stmts[i], err = Parse(fmt.Sprintf("SELECT id, g, age FROM T WHERE id = %d AND age > 0", i*(n/len(stmts))))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := e.ExecStmtContext(context.Background(), stmts[i%len(stmts)])
		if err != nil {
			b.Fatal(err)
		}
		if rs.Len() != 1 {
			b.Fatalf("point lookup yielded %d rows", rs.Len())
		}
	}
}

// BenchmarkJoinAggregate is the sql_analytic join_agg shape at a third of its
// size: 20000 customers (id LONG, g TEXT) joined to 60000 sales (cust LONG,
// qty DOUBLE), three per customer, then grouped on the customer side. The
// customers probe an index over the sales in 4096-row partitions; its
// allocs/op shows whether the join allocates per joined row.
func BenchmarkJoinAggregate(b *testing.B) {
	const customers, sales = 20000, 60000
	e := NewEngine(storage.NewDatabase())
	for _, s := range []string{"CREATE TABLE C (id LONG, g TEXT)", "CREATE TABLE S (cust LONG, qty DOUBLE)"} {
		if _, err := e.Exec(s); err != nil {
			b.Fatal(err)
		}
	}
	ct, _ := e.DB.Table("C")
	st, _ := e.DB.Table("S")
	for i := 0; i < customers; i++ {
		if err := ct.Insert(rowset.Row{int64(i), fmt.Sprintf("g%d", i%2)}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < sales; i++ {
		if err := st.Insert(rowset.Row{int64(i * 7 % customers), float64(i%9) / 4}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := e.Exec("SELECT C.g, COUNT(*), SUM(S.qty) FROM C JOIN S ON C.id = S.cust GROUP BY C.g")
		if err != nil {
			b.Fatal(err)
		}
		if rs.Len() != 2 || rs.Row(0)[1].(int64)+rs.Row(1)[1].(int64) != sales {
			b.Fatalf("join aggregate = %v, want 2 groups of %d sales", rs.Rows(), sales)
		}
	}
}
