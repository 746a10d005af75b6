package sqlengine

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/storage"
	"repro/internal/workload"
)

// TestOrderByOneColumnAllocatesNoKeys: ORDER BY one output column reads its
// keys off the output rows, and rows already in order by it are not touched.
// Over the 50k Customers rows, stored in [Customer ID] order, the ORDER BY
// must cost less than the smallest buffer it would take otherwise: key rows
// (24 B a row) or a radix image (8 B a row).
func TestOrderByOneColumnAllocatesNoKeys(t *testing.T) {
	bytes := warehouseBytes(t)
	const sel = "SELECT [Customer ID], Gender, Age FROM Customers"
	plain, ordered := bytes(sel, 50000), bytes(sel+" ORDER BY [Customer ID]", 50000)
	if extra := int64(ordered) - int64(plain); extra >= 8*50000 {
		t.Errorf("ORDER BY [Customer ID] allocates %d B more than the plain SELECT (%d B), want under %d", extra, plain, 8*50000)
	}
}

// TestTopAllocatesWhatItKeeps: a TOP without ORDER BY trims inside the one
// partition it scans, so its output grows to the rows it keeps: 3.9 KB a
// run. A result slice sized to the 50k Customers rows costs 1.2 MB (24 B a
// row).
func TestTopAllocatesWhatItKeeps(t *testing.T) {
	bytes := warehouseBytes(t)
	if got := bytes("SELECT TOP 10 * FROM Customers", 10); got >= 8*50000 {
		t.Errorf("SELECT TOP 10 allocates %d B, want under %d", got, 8*50000)
	}
}

// TestJoinAggregateAllocs: a join feeding GROUP BY keeps no joined rows —
// each partition writes every batch's over the last one's — and probes the
// Sales key index the table built once, not once per statement. The
// sql_analytic join_agg statement over 50k customers and their 156k sales
// allocates 10.9 MB a run when both are made per statement, and the index
// alone is over 3 MB; once the index is built, a run must allocate at most
// 3 MB.
func TestJoinAggregateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	bytes := warehouseBytes(t)
	const joinAgg = "SELECT c.Gender, COUNT(*), SUM(s.Quantity) FROM Customers c JOIN Sales s ON c.[Customer ID] = s.CustID GROUP BY c.Gender"
	cold := bytes(joinAgg, 2) // the first of its runs builds the index
	got := bytes(joinAgg, 2)
	t.Logf("join_agg: %d B a run over five runs from cold, %d B warm", cold, got)
	if got > 3<<20 {
		t.Errorf("join_agg allocates %d B a run, want at most %d", got, 3<<20)
	}
}

// warehouseBytes populates the 50k-customer warehouse and returns what one
// run of a statement allocates, averaged over five runs that must each return
// rows rows.
func warehouseBytes(t *testing.T) func(sql string, rows int) uint64 {
	if testing.Short() {
		t.Skip("populates the 50k-customer warehouse")
	}
	e := NewEngine(storage.NewDatabase())
	if _, err := workload.Populate(e.DB, workload.Config{Customers: 50000, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	return func(sql string, rows int) uint64 {
		stmt, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			if rs, err := e.ExecStmtContext(context.Background(), stmt); err != nil || rs.Len() != rows {
				t.Fatalf("%s: %v", sql, err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
}
