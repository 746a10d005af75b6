// Command heapprobe measures what the stored warehouse costs the garbage
// collector:
//
//	go run ./tools/heapprobe            (or: make heap-probe)
//
// It populates the synthetic customer warehouse (50 000 customers, seed 1)
// in a fresh provider, forces a collection, and reports the live heap
// objects and scannable heap bytes the warehouse added, and how long one
// forced collection of it takes. It then trains the two flat models the
// predict_batch workload scores with and runs a fixed number of that
// workload's statement pair and of the sql_analytic workload's four SELECTs,
// in-process, reporting the GC cycles each loop ran and its GC CPU share.
// The share is /cpu/classes/gc/total over /cpu/classes/total — all CPU time
// available to the process, idle included — both as of the last completed
// cycle. Everything is printed as one line for EXPERIMENTS.md. The command
// takes no arguments and fails only when a step fails.
//
// The model definitions and statements are copies of the benchmark's in
// bench/workloads.go (flatColumns, flatTrainSource, the sql_analytic SELECTs
// and predictAll); the predict_batch and sql_analytic labels hold only while
// the two copies match.
package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/provider"
	"repro/internal/workload"
)

const (
	customers = 50000 // warehouse size, as the benchmark's default scale
	passes    = 40    // passes over each workload's statements

	flatColumns = `([Customer ID] LONG KEY, [Gender] TEXT DISCRETE, [Hair Color] TEXT DISCRETE, [Age] DOUBLE DISCRETIZED PREDICT)`
	flatSource  = `SELECT [Customer ID], Gender, [Hair Color], Age FROM Customers ORDER BY [Customer ID]`
)

var (
	setup = []string{
		"CREATE MINING MODEL [Probe DT] " + flatColumns + " USING [Decision_Trees]",
		"INSERT INTO [Probe DT] ([Customer ID], [Gender], [Hair Color], [Age]) " + flatSource,
		"CREATE MINING MODEL [Probe NB] " + flatColumns + " USING [Naive_Bayes]",
		"INSERT INTO [Probe NB] ([Customer ID], [Gender], [Hair Color], [Age]) " + flatSource,
	}
	predictBatch = []string{predictAll("Probe DT"), predictAll("Probe NB")}
	sqlAnalytic  = []string{
		`SELECT [Customer ID], Gender, Age FROM Customers WHERE Age > 30 ORDER BY Age`,
		`SELECT [Customer ID], Gender, Age FROM Customers WHERE Age > 21 AND Age < 60 AND Gender = 'Male' AND [Customer ID] > 0`,
		`SELECT [Product Name], COUNT(*), SUM(Quantity) FROM Sales GROUP BY [Product Name]`,
		`SELECT c.Gender, COUNT(*), SUM(s.Quantity) FROM Customers c JOIN Sales s ON c.[Customer ID] = s.CustID GROUP BY c.Gender`,
	}
	// names are the runtime/metrics samples read, in this order.
	names = []string{"/gc/heap/objects:objects", "/gc/scan/heap:bytes", "/gc/cycles/total:gc-cycles",
		"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}
)

func predictAll(model string) string {
	return fmt.Sprintf("SELECT t.[Customer ID], [%s].[Age], PredictProbability([Age]) FROM [%s] "+
		"NATURAL PREDICTION JOIN (SELECT [Customer ID], Gender, [Hair Color] FROM Customers) AS t", model, model)
}

// sample is one reading of names.
type sample struct {
	objects, scanBytes, cycles uint64
	gcCPU, totalCPU            float64
}

func read() sample {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	return sample{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64(), s[3].Value.Float64(), s[4].Value.Float64()}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "heapprobe:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()
	p, err := provider.New()
	if err != nil {
		return err
	}
	runtime.GC()
	before := read()
	if _, err := workload.Populate(p.DB, workload.Config{Customers: customers, Seed: 1}); err != nil {
		return err
	}
	rows := 0
	for _, name := range p.DB.Names() {
		t, err := p.DB.Table(name)
		if err != nil {
			return err
		}
		rows += t.Len()
	}
	runtime.GC()
	loaded := read()
	start := time.Now()
	runtime.GC()
	forced := time.Since(start)
	line := fmt.Sprintf("warehouse %d customers, %d rows: %d live heap objects, %.1f MB scannable heap, forced GC %.1f ms",
		customers, rows, loaded.objects-before.objects, float64(loaded.scanBytes-before.scanBytes)/1e6, float64(forced.Microseconds())/1e3)

	s := p.NewSession()
	for _, stmt := range setup {
		if _, err := s.Execute(ctx, stmt); err != nil {
			return fmt.Errorf("%s: %w", stmt, err)
		}
	}
	for _, w := range []struct {
		name  string
		stmts []string
	}{{"predict_batch", predictBatch}, {"sql_analytic", sqlAnalytic}} {
		runtime.GC()
		a := read()
		start := time.Now()
		for range passes {
			for _, stmt := range w.stmts {
				if _, err := s.Execute(ctx, stmt); err != nil {
					return fmt.Errorf("%s: %w", w.name, err)
				}
			}
		}
		elapsed := time.Since(start)
		b := read()
		line += fmt.Sprintf("; %s x%d: %.1f ms/op, %d GC cycles, GC CPU share %.2f",
			w.name, passes, float64(elapsed.Microseconds())/1e3/float64(passes), b.cycles-a.cycles, (b.gcCPU-a.gcCPU)/(b.totalCPU-a.totalCPU))
	}
	fmt.Printf("heapprobe (GOMAXPROCS=%d, %s): %s\n", runtime.GOMAXPROCS(0), runtime.Version(), line)
	return nil
}
