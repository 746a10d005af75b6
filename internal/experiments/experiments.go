// Package experiments implements the reproduction harness: one runner per
// experiment in DESIGN.md's index (E1–E10). The paper's evaluation is
// qualitative — one architecture figure, one table, a running example, and
// performance claims in prose — so each runner either regenerates the
// paper's artifact (E1, E10) or quantifies a claim (E2–E9). cmd/dmbench
// prints the reports; bench_test.go wraps the same runners as testing.B
// benchmarks; EXPERIMENTS.md records representative output.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/provider"
	"repro/internal/rowset"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Config scales the experiments.
type Config struct {
	// Scale is the base customer count (default 2000).
	Scale int
	// Seed drives the synthetic workload.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 2000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Result is one experiment's report.
type Result struct {
	ID    string
	Title string
	// Paper states what the paper claims/shows; Measured is our finding.
	Paper    string
	Measured string
	// Table is the formatted result table.
	Table string
}

// String renders the report for the terminal and EXPERIMENTS.md.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	fmt.Fprintf(&b, "paper:    %s\n", r.Paper)
	fmt.Fprintf(&b, "measured: %s\n", r.Measured)
	if r.Table != "" {
		b.WriteString(r.Table)
	}
	return b.String()
}

// Runner executes one experiment. ctx cancellation aborts the experiment
// between and inside statements.
type Runner func(context.Context, Config) (*Result, error)

// registry of experiments in order.
var experiments = []struct {
	id     string
	title  string
	runner Runner
}{
	{"E1", "Table 1: flattened join vs hierarchical caseset", RunE1},
	{"E2", "In-provider mining vs export-and-mine pipeline", RunE2},
	{"E3", "Training throughput per mining service", RunE3},
	{"E4", "Prediction-join throughput (ON vs NATURAL)", RunE4},
	{"E5", "Content browsing and PMML round trip", RunE5},
	{"E6", "Discretization method ablation", RunE6},
	{"E7", "Case assembly: SHAPE vs flat-join regrouping", RunE7},
	{"E8", "Cross-algorithm accuracy on planted ground truth", RunE8},
	{"E9", "In-process vs out-of-process provider", RunE9},
	{"E10", "The paper's running example, verbatim", RunE10},
}

// IDs lists experiment identifiers in order.
func IDs() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.id
	}
	return out
}

// Run executes one experiment by ID (case-insensitive).
func Run(ctx context.Context, id string, cfg Config) (*Result, error) {
	for _, e := range experiments {
		if strings.EqualFold(e.id, id) {
			return e.runner(ctx, cfg.withDefaults())
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
}

// RunAll executes every experiment in order.
func RunAll(ctx context.Context, cfg Config) ([]*Result, error) {
	out := make([]*Result, 0, len(experiments))
	for _, e := range experiments {
		r, err := e.runner(ctx, cfg.withDefaults())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.id, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// ---------- shared helpers ----------

// table accumulates rows and renders an aligned text table via rowset.
type table struct {
	rs  *rowset.Rowset
	err error
}

func newTable(cols ...string) *table {
	cs := make([]rowset.Column, len(cols))
	for i, c := range cols {
		cs[i] = rowset.Column{Name: c, Type: rowset.TypeText}
	}
	return &table{rs: rowset.New(rowset.MustSchema(cs...))}
}

// add appends one display row. The first append failure is recorded and
// subsequent adds become no-ops; render reports it.
func (t *table) add(vals ...any) {
	if t.err != nil {
		return
	}
	row := make(rowset.Row, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case string:
			row[i] = x
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.err = t.rs.Append(row)
}

// render returns the formatted table, or the first error add recorded.
func (t *table) render() (string, error) {
	if t.err != nil {
		return "", t.err
	}
	return t.rs.String(), nil
}

// freshWarehouse builds a provider over a freshly generated warehouse and
// opens the session the experiment's statements run on.
func freshWarehouse(cfg Config, extraNoise int) (*provider.Provider, *provider.Session, *workload.Truth, error) {
	p, err := provider.New()
	if err != nil {
		return nil, nil, nil, err
	}
	truth, err := workload.Populate(p.DB, workload.Config{
		Customers:          cfg.Scale,
		Seed:               cfg.Seed,
		ExtraNoiseProducts: extraNoise,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return p, p.NewSession(), truth, nil
}

// freshDatabase builds only the storage layer.
func freshDatabase(cfg Config, extraNoise int) (*storage.Database, *workload.Truth, error) {
	db := storage.NewDatabase()
	truth, err := workload.Populate(db, workload.Config{
		Customers:          cfg.Scale,
		Seed:               cfg.Seed,
		ExtraNoiseProducts: extraNoise,
	})
	if err != nil {
		return nil, nil, err
	}
	return db, truth, nil
}

// sortedIDs returns customer IDs in ascending order for deterministic
// iteration over truth maps.
func sortedIDs(m map[int64]workload.Archetype) []int64 {
	out := make([]int64, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// msRound is the display rounding for wall times.
const msRound = time.Millisecond

// nowFn is time.Now, indirected for readability at call sites that time
// sub-steps inline.
var nowFn = time.Now

// timeExec runs one command and reports its wall time and result.
func timeExec(ctx context.Context, sess *provider.Session, cmd string) (time.Duration, *rowset.Rowset, error) {
	start := time.Now()
	rs, err := sess.Execute(ctx, cmd)
	return time.Since(start), rs, err
}

func perSecond(n int, seconds float64) string {
	if seconds <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.0f", float64(n)/seconds)
}
