package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the report must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSmoke runs every workload at scale 600 for a handful of ops, untraced
// and traced, and checks the report against BENCHMARK.json: the same
// workload and metric names with the same units, no failed op, and a span
// tree whose parents resolve.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var wantWorkloads, gotWorkloads []string
	for _, w := range b.Workloads {
		wantWorkloads = append(wantWorkloads, w.Name)
	}
	for _, def := range workloads {
		gotWorkloads = append(gotWorkloads, def.name)
	}
	if !equalStrings(gotWorkloads, wantWorkloads) {
		t.Fatalf("workloads %v, BENCHMARK.json lists %v", gotWorkloads, wantWorkloads)
	}
	units := make(map[string]string)
	var wantEndToEnd, wantPerLayer []string
	for _, m := range b.EndToEnd {
		wantEndToEnd = append(wantEndToEnd, m.Name)
		units[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		wantPerLayer = append(wantPerLayer, m.Name)
		units[m.Name] = m.Unit
	}
	sort.Strings(wantEndToEnd)
	sort.Strings(wantPerLayer)

	ctx := context.Background()
	cfg := config{Seed: 1, Scale: 600, Seconds: 0.08, Setups: 2}
	for _, traced := range []bool{false, true} {
		rep, err := runSuite(ctx, io.Discard, workloads, cfg, traced, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Results) != len(workloads) {
			t.Fatalf("traced=%v: %d results for %d workloads", traced, len(rep.Results), len(workloads))
		}
		for _, res := range rep.Results {
			if res.Failed != 0 || res.Attempted == 0 || res.failShare() != 0 {
				t.Errorf("%s traced=%v: %d of %d ops failed: %v", res.Workload, traced, res.Failed, res.Attempted, res.Errors)
			}
			want := wantEndToEnd
			if traced {
				want = wantPerLayer
			}
			if got := sortedKeys(res.metrics()); !equalStrings(got, want) {
				t.Errorf("%s traced=%v reports %v, BENCHMARK.json lists %v", res.Workload, traced, got, want)
			}
			for name, m := range res.metrics() {
				if m.Unit != units[name] {
					t.Errorf("%s %s: unit %q, BENCHMARK.json says %q", res.Workload, name, m.Unit, units[name])
				}
			}
			for name, m := range res.EndToEnd {
				if !(m.Value > 0) {
					t.Errorf("%s %s = %v, want > 0", res.Workload, name, m.Value)
				}
			}
			if traced {
				checkSpans(t, res)
			}
		}
		summary := rep.summary()
		if summary["correct"] != true || summary["failed"] != 0 {
			t.Errorf("traced=%v summary: correct=%v failed=%v", traced, summary["correct"], summary["failed"])
		}
	}
}

// checkSpans asserts the trace is a forest: every parent exists, precedes
// its child, belongs to the same op and encloses it in time; and that both
// kinds of tree — client ops and ledger passes — were recorded.
func checkSpans(t *testing.T, res *result) {
	t.Helper()
	roots := make(map[string]int)
	for i, s := range res.Spans {
		if s.ID != i+1 || s.Workload != res.Workload || s.EndNs < s.StartNs || s.Layer == "" {
			t.Fatalf("%s: malformed span %+v at index %d", res.Workload, s, i)
		}
		if s.Parent == 0 {
			roots[s.Name]++
			continue
		}
		if s.Parent >= s.ID {
			t.Fatalf("%s: span %d names parent %d, which does not precede it", res.Workload, s.ID, s.Parent)
		}
		p := res.Spans[s.Parent-1]
		if p.Op != s.Op || p.StartNs > s.StartNs || p.EndNs < s.EndNs {
			t.Fatalf("%s: span %+v is not inside its parent %+v", res.Workload, s, p)
		}
	}
	if roots["op"] == 0 || roots["ledger"] < 3 {
		t.Errorf("%s: span roots %v, want client ops and at least three ledger passes", res.Workload, roots)
	}
	if res.OpSelfMs[layerProvider] <= 0 && res.OpSelfMs[layerWire] <= 0 {
		t.Errorf("%s: no statement self time in %v", res.Workload, res.OpSelfMs)
	}
}

// TestTailQuantile pins the "at least ten samples beyond" rule.
func TestTailQuantile(t *testing.T) {
	for _, n := range []int{1, 8, 19, 20, 35, 100, 199, 200, 201, 5000} {
		q := tailQuantile(n)
		if beyond := float64(n) * (1 - q); q != 0.5 && beyond < minBeyond-1e-9 {
			t.Errorf("n=%d: quantile %.4f leaves %.2f samples beyond it, want >= %d", n, q, beyond, minBeyond)
		}
		switch {
		case n < 2*minBeyond && q != 0.5:
			t.Errorf("n=%d: quantile %.4f, want the median when no tail is supported", n, q)
		case n >= 200 && q != 0.95:
			t.Errorf("n=%d: quantile %.4f, want 0.95", n, q)
		case q > 0.95 || q < 0.5:
			t.Errorf("n=%d: quantile %.4f outside [0.5, 0.95]", n, q)
		}
	}
}

// TestSpread checks the quartile rule against the values Python's
// statistics.quantiles(range(1, 11), n=4) returns: [2.75, 5.5, 8.25].
func TestSpread(t *testing.T) {
	s := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.Rel != 1 {
		t.Errorf("summarize(1..10) = %+v, want q1 2.75, median 5.5, q3 8.25, spread 1", s)
	}
}
