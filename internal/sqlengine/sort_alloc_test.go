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
	if testing.Short() {
		t.Skip("populates the 50k-customer warehouse")
	}
	e := NewEngine(storage.NewDatabase())
	if _, err := workload.Populate(e.DB, workload.Config{Customers: 50000, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	bytes := func(sql string) uint64 {
		stmt, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			if rs, err := e.ExecStmtContext(context.Background(), stmt); err != nil || rs.Len() != 50000 {
				t.Fatalf("%s: %v", sql, err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	const sel = "SELECT [Customer ID], Gender, Age FROM Customers"
	plain, ordered := bytes(sel), bytes(sel+" ORDER BY [Customer ID]")
	if extra := int64(ordered) - int64(plain); extra >= 8*50000 {
		t.Errorf("ORDER BY [Customer ID] allocates %d B more than the plain SELECT (%d B), want under %d", extra, plain, 8*50000)
	}
}
