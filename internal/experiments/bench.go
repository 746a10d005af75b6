package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/provider"
	"repro/internal/rowset"
	"repro/internal/workload"
)

// BenchReport is the machine-readable benchmark output (cmd/dmbench -json).
// EXPERIMENTS.md documents the schema; SchemaVersion bumps on breaking
// changes so downstream tooling can reject files it does not understand.
type BenchReport struct {
	SchemaVersion int             `json:"schema_version"`
	Scale         int             `json:"scale"`
	Seed          int64           `json:"seed"`
	Iterations    int             `json:"iterations"`
	Workloads     []BenchWorkload `json:"workloads"`
	// Load carries the cmd/dmload concurrency-harness result when one has
	// been merged in (dmload -merge): wall-clock tail latencies under
	// contention, not per-statement throughput.
	Load *workload.LoadReport `json:"load,omitempty"`
}

// BenchWorkload is one measured statement: per-iteration latency quantiles
// plus aggregate throughput in result rows per second.
type BenchWorkload struct {
	Name       string  `json:"name"`
	Statement  string  `json:"statement"`
	Iterations int     `json:"iterations"`
	Rows       int64   `json:"rows"`
	RowsPerSec float64 `json:"rows_per_sec"`
	P50Micros  int64   `json:"p50_micros"`
	P95Micros  int64   `json:"p95_micros"`
	P99Micros  int64   `json:"p99_micros,omitempty"`
}

// BenchIterations is the default per-workload repeat count: enough for a
// stable median without making `make bench-json` a coffee break.
const BenchIterations = 7

// benchPointQueries is how many point lookups one iteration of the
// parameterized workloads issues: enough that per-statement compile cost
// dominates over fixed overhead, small enough to keep the bench quick.
const benchPointQueries = 70

// benchWorkloads are the statement shapes the paper's pipeline exercises:
// relational scan, hierarchical case assembly, model training, prediction
// join, and the prepared-vs-ad-hoc point-query pair. setup runs once and
// reset before every timed iteration, both untimed. prep (untimed, once)
// does programmatic setup a statement cannot express; workloads with a run
// hook drive the provider through it instead of executing stmt.
var benchWorkloads = []struct {
	name  string
	setup []string
	reset []string
	stmt  string
	// rowsFromCell reads the row count out of the statement's single-cell
	// summary rowset (INSERT INTO reports "cases consumed") instead of the
	// rowset length.
	rowsFromCell bool
	prep         func(ctx context.Context, p *provider.Provider) error
	run          func(ctx context.Context, p *provider.Provider, scale, iter int) (int64, error)
}{
	{
		name: "sql-scan",
		stmt: `SELECT [Customer ID], Gender, Age FROM Customers WHERE Age > 30 ORDER BY Age`,
	},
	{
		// No ORDER BY, wide conjunctive filter: the shape the batch pipeline
		// is built for — selection vectors instead of per-row copies.
		name: "scan-wide-filter",
		stmt: `SELECT [Customer ID], Gender, Age FROM Customers
	WHERE Age > 21 AND Age < 60 AND Gender = 'Male' AND [Customer ID] > 0`,
	},
	{
		// Aggregates over a group key: per-partition partial aggregation
		// with a merge in partition order.
		name: "group-by-agg",
		stmt: `SELECT Gender, COUNT(*), AVG(Age), MIN(Age), MAX(Age)
	FROM Customers GROUP BY Gender`,
	},
	{
		name: "shape-caseset",
		stmt: `SHAPE {SELECT [Customer ID], Gender, Age FROM Customers ORDER BY [Customer ID]}
	APPEND ({SELECT CustID, [Product Name] FROM Sales ORDER BY CustID}
	RELATE [Customer ID] TO [CustID]) AS [Product Purchases]`,
	},
	{
		// Train from scratch each iteration: the model is dropped and
		// recreated untimed so every INSERT measures a full training pass.
		name: "train",
		setup: []string{`CREATE MINING MODEL [Bench Train] (
			[Customer ID] LONG KEY, [Gender] TEXT DISCRETE,
			[Age] DOUBLE DISCRETIZED PREDICT
		) USING [Decision_Trees]`},
		reset: []string{
			`DROP MINING MODEL [Bench Train]`,
			`CREATE MINING MODEL [Bench Train] (
			[Customer ID] LONG KEY, [Gender] TEXT DISCRETE,
			[Age] DOUBLE DISCRETIZED PREDICT
		) USING [Decision_Trees]`,
		},
		stmt: `INSERT INTO [Bench Train] ([Customer ID], [Gender], [Age])
	SELECT [Customer ID], Gender, Age FROM Customers ORDER BY [Customer ID]`,
		rowsFromCell: true,
	},
	{
		name: "predict-join",
		setup: []string{
			`CREATE MINING MODEL [Bench Predict] (
			[Customer ID] LONG KEY, [Gender] TEXT DISCRETE,
			[Age] DOUBLE DISCRETIZED PREDICT
		) USING [Decision_Trees]`,
			`INSERT INTO [Bench Predict] ([Customer ID], [Gender], [Age])
	SELECT [Customer ID], Gender, Age FROM Customers ORDER BY [Customer ID]`,
		},
		stmt: `SELECT t.[Customer ID], [Bench Predict].Age FROM [Bench Predict]
	NATURAL PREDICTION JOIN (SELECT [Customer ID], Gender FROM Customers) AS t`,
	},
	{
		// Ad-hoc point queries: every statement arrives as unique text (the
		// key is spliced into the command), so each execution pays parse,
		// semantic analysis, and planning — the plan cache cannot help.
		name: "adhoc-params",
		stmt: benchPointStmtShape,
		prep: func(_ context.Context, p *provider.Provider) error { return benchPointIndex(p) },
		run: func(ctx context.Context, p *provider.Provider, scale, iter int) (int64, error) {
			var rows int64
			for i := 0; i < benchPointQueries; i++ {
				id := benchPointID(scale, iter, i)
				rs, err := p.ExecuteContext(ctx, fmt.Sprintf(benchPointStmtShape, id))
				if err != nil {
					return 0, err
				}
				rows += int64(rs.Len())
			}
			return rows, nil
		},
	},
	{
		// The same point queries through a prepared statement: one compile at
		// PREPARE, then argument binding against the cached plan per call.
		// The rows/sec gap against adhoc-params is the per-statement
		// compilation cost the prepared path amortizes away.
		name: "prepared-params",
		stmt: benchPointStmtPrepared,
		prep: func(ctx context.Context, p *provider.Provider) error {
			if err := benchPointIndex(p); err != nil {
				return err
			}
			_, err := p.PrepareContext(ctx, "bench_point", benchPointStmtPrepared)
			return err
		},
		run: func(ctx context.Context, p *provider.Provider, scale, iter int) (int64, error) {
			var rows int64
			for i := 0; i < benchPointQueries; i++ {
				id := benchPointID(scale, iter, i)
				rs, err := p.ExecutePreparedContext(ctx, "bench_point", []rowset.Value{int64(id)})
				if err != nil {
					return 0, err
				}
				rows += int64(rs.Len())
			}
			return rows, nil
		},
	},
}

// benchPointStmtShape is the ad-hoc point query; %d receives the customer ID.
const benchPointStmtShape = `SELECT [Customer ID], Gender, Age FROM Customers WHERE [Customer ID] = %d`

// benchPointStmtPrepared is the same query with a placeholder.
const benchPointStmtPrepared = `SELECT [Customer ID], Gender, Age FROM Customers WHERE [Customer ID] = ?`

// benchPointIndex gives Customers a hash index on its key so both
// parameterized workloads measure statement processing, not table scans.
func benchPointIndex(p *provider.Provider) error {
	tbl, err := p.DB.Table("Customers")
	if err != nil {
		return err
	}
	return tbl.CreateIndex("Customer ID")
}

// benchPointID cycles point-query keys through the customer ID space.
func benchPointID(scale, iter, i int) int {
	return (iter*benchPointQueries+i)%scale + 1
}

// RunBench measures the benchmark workloads over a fresh synthetic
// warehouse and returns the machine-readable report.
func RunBench(ctx context.Context, cfg Config) (*BenchReport, error) {
	cfg = cfg.withDefaults()
	p, _, err := freshWarehouse(cfg, 0)
	if err != nil {
		return nil, err
	}
	report := &BenchReport{
		SchemaVersion: 1,
		Scale:         cfg.Scale,
		Seed:          cfg.Seed,
		Iterations:    BenchIterations,
	}
	for _, w := range benchWorkloads {
		for _, s := range w.setup {
			if _, err := p.ExecuteContext(ctx, s); err != nil {
				return nil, fmt.Errorf("bench %s setup: %w", w.name, err)
			}
		}
		if w.prep != nil {
			if err := w.prep(ctx, p); err != nil {
				return nil, fmt.Errorf("bench %s prep: %w", w.name, err)
			}
		}
		durs := make([]time.Duration, 0, BenchIterations)
		var rows int64
		var total time.Duration
		for i := 0; i < BenchIterations; i++ {
			for _, s := range w.reset {
				if _, err := p.ExecuteContext(ctx, s); err != nil {
					return nil, fmt.Errorf("bench %s reset: %w", w.name, err)
				}
			}
			if w.run != nil {
				start := time.Now()
				n, err := w.run(ctx, p, cfg.Scale, i)
				d := time.Since(start)
				if err != nil {
					return nil, fmt.Errorf("bench %s: %w", w.name, err)
				}
				durs = append(durs, d)
				total += d
				rows = n
				continue
			}
			d, rs, err := timeExec(ctx, p, w.stmt)
			if err != nil {
				return nil, fmt.Errorf("bench %s: %w", w.name, err)
			}
			durs = append(durs, d)
			total += d
			if w.rowsFromCell {
				n, ok := rs.Row(0)[0].(int64)
				if !ok {
					return nil, fmt.Errorf("bench %s: summary cell %v is not a count", w.name, rs.Row(0)[0])
				}
				rows = n
			} else {
				rows = int64(rs.Len())
			}
		}
		report.Workloads = append(report.Workloads, BenchWorkload{
			Name:       w.name,
			Statement:  w.stmt,
			Iterations: BenchIterations,
			Rows:       rows,
			RowsPerSec: float64(rows) * float64(BenchIterations) / total.Seconds(),
			P50Micros:  quantileMicros(durs, 0.50),
			P95Micros:  quantileMicros(durs, 0.95),
			P99Micros:  quantileMicros(durs, 0.99),
		})
	}
	return report, nil
}

// quantileMicros is the nearest-rank quantile of the duration sample in
// microseconds. The sample is small (BenchIterations), so nearest-rank is
// as honest as interpolation would pretend to be.
func quantileMicros(durs []time.Duration, q float64) int64 {
	sorted := make([]time.Duration, len(durs))
	copy(sorted, durs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx].Microseconds()
}
