package repro_test

import (
	"context"
	"os"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/provider"
	"repro/internal/provider/providertest"
	"repro/internal/workload"
)

// maxObsOverhead is the instrumentation budget: enabling observability may
// not slow the PREDICTION JOIN scan by more than this fraction.
const maxObsOverhead = 0.10

// TestObsOverheadSmoke compares batch-scoring throughput with observability
// enabled against the same provider built with WithObsRegistry(nil), and
// fails when the instrumented run is more than 10% slower. The instrumented
// side runs the whole surface — counters, vecs, the flight recorder on every
// statement, and the metrics-history ticker snapshotting concurrently — so
// the budget covers the full recorder+history pipeline, not just counter
// increments. Guarded by BENCH_SMOKE=1 (run via `make bench-smoke`) so
// routine `go test ./...` stays fast and free of timing-sensitive assertions.
func TestObsOverheadSmoke(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") == "" {
		t.Skip("set BENCH_SMOKE=1 (or run `make bench-smoke`) to check instrumentation overhead")
	}

	const scale = 400
	q := `SELECT t.[Customer ID], Predict([Age]), PredictProbability([Age]) FROM [Bench Age]
		NATURAL PREDICTION JOIN (SELECT [Customer ID], Gender FROM Customers) AS t`

	build := func(reg *obs.Registry) *provider.Provider {
		p := providertest.MustNew(provider.WithObsRegistry(reg))
		if _, err := workload.Populate(p.DB, workload.Config{Customers: scale, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		s := p.NewSession()
		if _, err := s.Execute(context.Background(), benchCreateAge); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Execute(context.Background(), benchInsertAge); err != nil {
			t.Fatal(err)
		}
		return p
	}

	measure := func(p *provider.Provider) float64 {
		s := p.NewSession()
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Execute(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
		})
		return float64(r.NsPerOp())
	}

	plain := build(nil)
	instrumented := build(obs.NewRegistry())
	// Snapshot aggressively: at the default 5s interval a short benchmark
	// round might never see a tick, and the gate is meant to price the
	// history collector in.
	stop := instrumented.Obs().StartHistoryTicker(50 * time.Millisecond)
	defer stop()

	// Interleave several rounds and keep each side's best time, which damps
	// scheduler and GC noise far better than one long run per side.
	const rounds = 3
	best := func(p *provider.Provider) float64 {
		min := measure(p)
		for i := 1; i < rounds; i++ {
			if v := measure(p); v < min {
				min = v
			}
		}
		return min
	}
	basePer := best(plain)
	obsPer := best(instrumented)

	overhead := (obsPer - basePer) / basePer
	t.Logf("plain %.0f ns/op, instrumented %.0f ns/op, overhead %+.2f%%",
		basePer, obsPer, overhead*100)
	if overhead > maxObsOverhead {
		t.Fatalf("observability overhead %.1f%% exceeds the %.0f%% budget",
			overhead*100, maxObsOverhead*100)
	}
}
