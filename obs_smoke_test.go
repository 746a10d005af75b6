package repro_test

import (
	"context"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/provider"
	"repro/internal/provider/providertest"
	"repro/internal/rowset"
	"repro/internal/workload"
)

// maxObsOverhead is the instrumentation budget: enabling observability may
// not slow a priced workload by more than this fraction.
const maxObsOverhead = 0.10

// obsSmokePairs is how many instrumented/bare pairs each workload runs; the
// side that runs first alternates from pair to pair.
const obsSmokePairs = 31

// obsSmokeTarget is roughly how long one side of one pair runs: short, so a
// pair's two sides see the same load on a shared host.
const obsSmokeTarget = 10 * time.Millisecond

// TestObsOverheadSmoke prices observability on two workloads — the batch
// PREDICTION JOIN (a scan-heavy statement) and the prepared point SELECT
// (where the per-statement cost of tracing, the statement store and the
// metrics is largest relative to the work) — against the same provider
// built with WithObsRegistry(nil), and fails when either workload's
// instrumented side is more than 10% slower per statement than its bare side
// in the median pair. The sides run in alternating pairs, each pair's two
// sides back to back, so both see the same stretch of a noisy host and each
// pair's ratio compares like with like. The instrumented side runs the whole
// surface: counters, vecs, the flight recorder on every statement, and the
// metrics-history ticker snapshotting concurrently. Guarded by BENCH_SMOKE=1
// (run via `make bench-smoke`) so routine `go test ./...` stays fast and
// free of timing-sensitive assertions.
func TestObsOverheadSmoke(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") == "" {
		t.Skip("set BENCH_SMOKE=1 (or run `make bench-smoke`) to check instrumentation overhead")
	}
	ctx := context.Background()

	const scale = 400
	predict := `SELECT t.[Customer ID], Predict([Age]), PredictProbability([Age]) FROM [Bench Age]
		NATURAL PREDICTION JOIN (SELECT [Customer ID], Gender FROM Customers) AS t`
	predictSession := func(reg *obs.Registry) func(int64) error {
		p := providertest.MustNew(provider.WithObsRegistry(reg))
		if _, err := workload.Populate(p.DB, workload.Config{Customers: scale, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		s := p.NewSession()
		for _, st := range []string{benchCreateAge, benchInsertAge} {
			if _, err := s.Execute(ctx, st); err != nil {
				t.Fatal(err)
			}
		}
		return func(int64) error {
			_, err := s.Execute(ctx, predict)
			return err
		}
	}
	pointSelect := func(reg *obs.Registry) func(int64) error {
		s := pointSession(t, reg)
		return func(key int64) error {
			_, err := s.ExecutePrepared(ctx, "sel", []rowset.Value{key%pointScale + 1})
			return err
		}
	}

	for _, w := range []struct {
		name  string
		build func(*obs.Registry) func(int64) error
	}{{"predict_batch", predictSession}, {"prepared_select", pointSelect}} {
		reg := obs.NewRegistry()
		instrumented, bare := w.build(reg), w.build(nil)
		// Snapshot aggressively: at the default 5s interval a short run might
		// never see a tick, and the gate is meant to price the history
		// collector in.
		stop := reg.StartHistoryTicker(50 * time.Millisecond)
		obsNs, bareNs, ratio := pairedNsPerOp(t, instrumented, bare)
		stop()
		overhead := ratio - 1
		t.Logf("%s: %d pairs: median bare %.0f ns/op, instrumented %.0f ns/op; median pair overhead %+.1f%%",
			w.name, obsSmokePairs, bareNs, obsNs, overhead*100)
		if overhead > maxObsOverhead {
			t.Errorf("%s: observability overhead %.1f%% exceeds the %.0f%% budget",
				w.name, overhead*100, maxObsOverhead*100)
		}
	}
}

// pairedNsPerOp times a and b in obsSmokePairs alternating pairs, each side
// running the same number of operations — sized so one side takes about
// obsSmokeTarget — and returns each side's median time per operation and the
// median of the pairs' a/b ratios.
func pairedNsPerOp(t *testing.T, a, b func(key int64) error) (float64, float64, float64) {
	t.Helper()
	key := int64(0)
	run := func(f func(int64) error, n int) float64 {
		start := time.Now()
		for range n {
			key++
			if err := f(key); err != nil {
				t.Fatal(err)
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	// Warm both sides, then size the pairs from the bare side's warm rate.
	run(a, 20)
	n := max(1, int(float64(obsSmokeTarget)/run(b, 20)))
	as, bs, ratios := make([]float64, obsSmokePairs), make([]float64, obsSmokePairs), make([]float64, obsSmokePairs)
	for i := range obsSmokePairs {
		if i%2 == 0 {
			as[i], bs[i] = run(a, n), run(b, n)
		} else {
			bs[i], as[i] = run(b, n), run(a, n)
		}
		ratios[i] = as[i] / bs[i]
	}
	return median(as), median(bs), median(ratios)
}

// median returns the middle of an odd number of values.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}
