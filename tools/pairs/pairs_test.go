package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuartiles: the exclusive rule of Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 12, 11, 30}, 10.25, 11.5, 25.5},
		{[]float64{4}, 4, 4, 4},
	} {
		if q1, med, q3 := quartiles(c.in); q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.in, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

// report is a minimal `go run ./bench -out` report of one workload.
func report(workload string, failed int, p50, rows float64) []byte {
	return []byte(fmt.Sprintf(`{"host":{"nproc":2},"results":[{"workload":%q,"attempted":100,"failed":%d,
		"end_to_end":{"p50_ms":{"value":%g,"unit":"ms"},"rows_per_s":{"value":%g,"unit":"rows/s"}},
		"per_layer":{"engine_ms":{"value":1,"unit":"ms"}}}]}`, workload, failed, p50, rows))
}

// TestWriteTable pins the table printed for four fixed pairs: wins counted
// pair by pair in each metric's direction, medians and quartiles, the ratio,
// the bound and the gain-beyond-spread checks, and the failed ops.
func TestWriteTable(t *testing.T) {
	specs := []spec{
		{Name: "p50_ms", Better: "lower", Bound: 0.25},
		{Name: "p95_ms", Better: "lower", Bound: 0.25}, // in no report: no row
		{Name: "rows_per_s", Better: "higher", Bound: 0.25},
	}
	var base, head []run
	for i, p := range []struct{ b50, h50, brows, hrows float64 }{
		{100, 80, 1000, 1300}, {104, 83, 1010, 900}, {96, 86, 990, 700}, {102, 120, 1020, 650},
	} {
		for _, side := range []struct {
			runs *[]run
			data []byte
		}{{&base, report("train_nested", 0, p.b50, p.brows)}, {&head, report("train_nested", i%2, p.h50, p.hrows)}} {
			byWorkload, err := parseReport(side.data)
			if err != nil {
				t.Fatal(err)
			}
			*side.runs = append(*side.runs, byWorkload["train_nested"])
		}
	}
	var b strings.Builder
	writeTable(&b, specs, base, head)
	want := "| metric | base median | base Q1–Q3 | head median | head Q1–Q3 | head wins | head / base | within bound | beyond base Q1–Q3 |\n" +
		"|---|---:|---:|---:|---:|---:|---:|---|---|\n" +
		"| `p50_ms` | 101 | 97–103.5 | 84.5 | 80.75–111.5 | 3/4 | 0.837 | yes (0.25) | yes |\n" +
		"| `rows_per_s` | 1005 | 992.5–1018 | 800 | 662.5–1200 | 1/4 | 0.796 | yes (0.25) | no |\n" +
		"\nfailed ops: base 0 of 400, head 2 of 400\n"
	if got := b.String(); got != want {
		t.Errorf("table:\n%s\nwant:\n%s", got, want)
	}
}

// TestWriteLedger pins a traced pair's table: the base's per-layer metrics in
// name order, then those only the head reports, each with its unit, both
// values and their ratio, and a dash for a missing side or a zero base.
func TestWriteLedger(t *testing.T) {
	base := run{layers: map[string]layer{"engine_ms": {20, "ms"}, "gc_cycles": {0, "count"}, "old_only": {3, "1/op"}}}
	head := run{layers: map[string]layer{"engine_ms": {12.5, "ms"}, "gc_cycles": {2, "count"}, "alloc_bytes_per_op": {1.5e6, "B/op"}}}
	var b strings.Builder
	writeLedger(&b, base, head)
	want := "| per-layer metric | unit | base | head | head / base |\n" +
		"|---|---|---:|---:|---:|\n" +
		"| `engine_ms` | ms | 20 | 12.5 | 0.625 |\n" +
		"| `gc_cycles` | count | 0 | 2 | – |\n" +
		"| `old_only` | 1/op | 3 | – | – |\n" +
		"| `alloc_bytes_per_op` | B/op | – | 1500000 | – |\n"
	if got := b.String(); got != want {
		t.Errorf("ledger:\n%s\nwant:\n%s", got, want)
	}
	parsed, err := parseReport(report("sql_analytic", 0, 30, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if l := parsed["sql_analytic"].layers["engine_ms"]; l != (layer{1, "ms"}) {
		t.Errorf("parsed per-layer engine_ms = %+v, want 1 ms", l)
	}
}

// TestBound: a head median more than the bound worse is out of it, in either
// direction.
func TestBound(t *testing.T) {
	one := func(v float64) []run { return []run{{metrics: map[string]float64{"m": v}}} }
	for _, c := range []struct {
		better     string
		base, head float64
		within     bool
	}{
		{"lower", 100, 125, true}, {"lower", 100, 126, false},
		{"higher", 100, 75, true}, {"higher", 100, 74, false},
	} {
		var b strings.Builder
		writeTable(&b, []spec{{Name: "m", Better: c.better, Bound: 0.25}}, one(c.base), one(c.head))
		if got := strings.Contains(b.String(), "| yes (0.25) |"); got != c.within {
			t.Errorf("%s better, base %v, head %v: within = %v, want %v\n%s", c.better, c.base, c.head, got, c.within, b.String())
		}
	}
}

func TestParseSeeds(t *testing.T) {
	if got, err := parseSeeds("1, 7"); err != nil || fmt.Sprint(got) != "[1 7]" {
		t.Errorf("parseSeeds = %v, %v", got, err)
	}
	if _, err := parseSeeds("1,x"); err == nil {
		t.Error("parseSeeds(1,x) succeeded")
	}
}

// TestMeasureRemovesOnlyItsDirectory: a run that fails — here on a revision
// that does not exist — removes the directory it made under -dir, and
// nothing else there.
func TestMeasureRemovesOnlyItsDirectory(t *testing.T) {
	parent := t.TempDir()
	keep := filepath.Join(parent, "keep.txt")
	if err := os.WriteFile(keep, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := measure("no-such-revision-anywhere", 1, []int{1}, "", parent, true); err == nil {
		t.Fatal("measure succeeded on a revision that does not exist")
	}
	entries, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "keep.txt" {
		t.Errorf("left in -dir: %v, want only keep.txt", entries)
	}
}
