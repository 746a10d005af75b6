package experiments

import (
	"context"
	"testing"
)

// BenchmarkProviderSQLScan measures the sql-scan bench workload through the
// full provider stack (sessions, metrics, flight recorder), isolating the
// per-statement overhead the engine-level benchmarks in internal/sqlengine
// do not see.
func BenchmarkProviderSQLScan(b *testing.B) {
	_, sess, _, err := freshWarehouse(Config{Scale: 500, Seed: 1}.withDefaults(), 0)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	const stmt = `SELECT [Customer ID], Gender, Age FROM Customers WHERE Age > 30 ORDER BY Age`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Execute(ctx, stmt); err != nil {
			b.Fatal(err)
		}
	}
}
