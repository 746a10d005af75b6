package sqlengine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/workload"
)

// benchTable builds one table shaped like the generated warehouse's
// Customers scan target: an integer key, a low-cardinality group column, and
// a numeric measure.
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

// BenchmarkWarehouseSQL runs the four statements of the sql_analytic
// workload (bench/workloads.go) over the synthetic warehouse at its size —
// 50000 customers, seed 1, about 156000 sales — one sub-benchmark each: a
// filter and a DOUBLE ORDER BY, a wide filter, a one-key GROUP BY, and a
// LONG equi-join probed by the customers' partitions, then grouped. Run it
// with -benchmem and -cpu 1,2: the join's index is read on the partition
// workers.
func BenchmarkWarehouseSQL(b *testing.B) {
	e := NewEngine(storage.NewDatabase())
	if _, err := workload.Populate(e.DB, workload.Config{Customers: 50000, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	for _, q := range []struct{ name, sql string }{
		{"filter_sort", "SELECT [Customer ID], Gender, Age FROM Customers WHERE Age > 30 ORDER BY Age"},
		{"filter_wide", "SELECT [Customer ID], Gender, Age FROM Customers WHERE Age > 21 AND Age < 60 AND Gender = 'Male' AND [Customer ID] > 0"},
		{"group_by", "SELECT [Product Name], COUNT(*), SUM(Quantity) FROM Sales GROUP BY [Product Name]"},
		{"join_agg", "SELECT c.Gender, COUNT(*), SUM(s.Quantity) FROM Customers c JOIN Sales s ON c.[Customer ID] = s.CustID GROUP BY c.Gender"},
	} {
		stmt, err := Parse(q.sql)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rs, err := e.ExecStmtContext(context.Background(), stmt)
				if err != nil {
					b.Fatal(err)
				}
				if rs.Len() == 0 {
					b.Fatalf("%s: no rows", q.name)
				}
			}
		})
	}
}
