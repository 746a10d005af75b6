package repro_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/provider"
	"repro/internal/provider/providertest"
	"repro/internal/rowset"
	"repro/internal/workload"
)

// pointScale is the warehouse the point-statement guards run over: the
// statements are index probes, so its size only changes the setup time.
const pointScale = 500

const (
	pointSelectSQL  = `SELECT [Customer ID], Gender, Age FROM Customers WHERE [Customer ID] = ?`
	pointPredictDMX = `SELECT t.[Customer ID], [Load Model].Age FROM [Load Model]
	NATURAL PREDICTION JOIN (SELECT [Customer ID], Gender FROM Customers WHERE [Customer ID] = ?) AS t`
)

// pointSession builds a provider on reg (nil: observability off) over the
// load warehouse with [Customer ID] indexed and [Load Model] trained, and
// returns a session with the point SELECT and the singleton PREDICTION JOIN
// prepared as "sel" and "pred".
func pointSession(tb testing.TB, reg *obs.Registry) *provider.Session {
	tb.Helper()
	ctx := context.Background()
	p := providertest.MustNew(provider.WithObsRegistry(reg))
	if _, err := workload.Populate(p.DB, workload.Config{Customers: pointScale, Seed: 1}); err != nil {
		tb.Fatal(err)
	}
	tbl, err := p.DB.Table("Customers")
	if err != nil {
		tb.Fatal(err)
	}
	if err := tbl.CreateIndex("Customer ID"); err != nil {
		tb.Fatal(err)
	}
	s := p.NewSession()
	for _, st := range workload.LoadSetupStatements() {
		if _, err := s.Execute(ctx, st); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := s.Prepare(ctx, "sel", pointSelectSQL); err != nil {
		tb.Fatal(err)
	}
	if _, err := s.Prepare(ctx, "pred", pointPredictDMX); err != nil {
		tb.Fatal(err)
	}
	return s
}

// pointStatements are the point workload's three statements on one key: an
// ad-hoc SELECT (a plan-cache hit after the first), the prepared SELECT and
// the prepared singleton PREDICTION JOIN.
func pointStatements(s *provider.Session) map[string]func(key int64) error {
	ctx := context.Background()
	one := func(rs *rowset.Rowset, err error) error {
		if err == nil && rs.Len() != 1 {
			err = fmt.Errorf("%d rows, want 1", rs.Len())
		}
		return err
	}
	return map[string]func(int64) error{
		"adhoc": func(key int64) error {
			return one(s.Execute(ctx, workload.SelectStatement(int(key))))
		},
		"prepared_select": func(key int64) error {
			return one(s.ExecutePrepared(ctx, "sel", []rowset.Value{key}))
		},
		"prepared_predict": func(key int64) error {
			return one(s.ExecutePrepared(ctx, "pred", []rowset.Value{key}))
		},
	}
}

// TestPointStatementObsAllocs: on a warmed session, a prepared point SELECT
// and a prepared singleton PREDICTION JOIN allocate no more with
// observability on than with WithObsRegistry(nil). The statement's trace,
// span tree, labels and counts live in a reused arena; at most one more
// allocation on average is allowed, for the tree the flight recorder copies
// out of the occasional statement it keeps. Without observability each
// statement stays within its ceiling: a table scan's qualified schema is
// cached and the query-log text of EXECUTE is built when the statement is
// prepared, so neither allocates per execution.
func TestPointStatementObsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled traces at random")
	}
	ceiling := map[string]float64{"prepared_select": 39, "prepared_predict": 105}
	on, off := pointStatements(pointSession(t, obs.NewRegistry())), pointStatements(pointSession(t, nil))
	for _, name := range []string{"prepared_select", "prepared_predict"} {
		measure := func(run func(int64) error) float64 {
			key := int64(0)
			for i := 0; i < 50; i++ { // warm the arena free list and the class state
				key = key%pointScale + 1
				if err := run(key); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			return testing.AllocsPerRun(200, func() {
				key = key%pointScale + 1
				if err := run(key); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			})
		}
		instrumented, bare := measure(on[name]), measure(off[name])
		t.Logf("%s: %.1f allocs with observability, %.1f without", name, instrumented, bare)
		if instrumented > bare+1 {
			t.Errorf("%s allocates %.1f objects with observability on, %.1f with it off: want at most 1 more",
				name, instrumented, bare)
		}
		if bare > ceiling[name] {
			t.Errorf("%s allocates %.1f objects without observability, want at most %.0f", name, bare, ceiling[name])
		}
	}
}

// BenchmarkPointStatement runs each point statement on a warmed session with
// observability on and off (-benchmem shows what instrumentation allocates).
func BenchmarkPointStatement(b *testing.B) {
	for _, side := range []struct {
		name string
		reg  *obs.Registry
	}{{"obs", obs.NewRegistry()}, {"bare", nil}} {
		stmts := pointStatements(pointSession(b, side.reg))
		for _, name := range []string{"adhoc", "prepared_select", "prepared_predict"} {
			run := stmts[name]
			b.Run(side.name+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := run(int64(i%pointScale + 1)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
