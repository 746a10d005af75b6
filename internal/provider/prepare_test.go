package provider_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/provider"
	"repro/internal/provider/providertest"
	"repro/internal/rowset"
)

// prepSession is one session over a fresh provider: PREPARE handles are
// session-scoped, so a test runs all its statements through it.
type prepSession struct {
	*provider.Session
	p *provider.Provider
}

func (s prepSession) Execute(command string) (*rowset.Rowset, error) {
	return s.Session.Execute(context.Background(), command)
}

func newPrepProvider(t *testing.T, opts ...provider.Option) prepSession {
	t.Helper()
	pr := providertest.MustNew(opts...)
	p := prepSession{Session: pr.NewSession(), p: pr}
	steps := []string{
		"CREATE TABLE People (id LONG, name TEXT, age DOUBLE)",
		"INSERT INTO People VALUES (1, 'Ann', 30), (2, 'O''Brien', 41), (3, 'Bea', 52)",
	}
	for _, s := range steps {
		if _, err := p.Execute(s); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func TestPrepareExecuteDeallocateStatements(t *testing.T) {
	p := newPrepProvider(t)
	if _, err := p.Execute("PREPARE by_id AS SELECT name FROM People WHERE id = ?"); err != nil {
		t.Fatal(err)
	}
	rs, err := p.Execute("EXECUTE by_id (2)")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 || rs.Row(0)[0] != "O'Brien" {
		t.Errorf("EXECUTE by_id (2) = %v", rs)
	}
	// Wrong arity is a clean error.
	if _, err := p.Execute("EXECUTE by_id (1, 2)"); err == nil || !strings.Contains(err.Error(), "argument") {
		t.Errorf("arity mismatch = %v", err)
	}
	// Duplicate PREPARE is rejected.
	if _, err := p.Execute("PREPARE by_id AS SELECT 1"); err == nil || !strings.Contains(err.Error(), "exists") {
		t.Errorf("duplicate prepare = %v", err)
	}
	if _, err := p.Execute("DEALLOCATE by_id"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute("EXECUTE by_id (2)"); !core.IsNotFound(err) {
		t.Errorf("execute after deallocate = %v, want not-found", err)
	}
	if _, err := p.Execute("DEALLOCATE by_id"); !core.IsNotFound(err) {
		t.Errorf("double deallocate = %v, want not-found", err)
	}
}

func TestExecuteStringArgsCarryQuotes(t *testing.T) {
	p := newPrepProvider(t)
	if _, err := p.Execute("PREPARE by_name AS SELECT id FROM People WHERE name = ?"); err != nil {
		t.Fatal(err)
	}
	rs, err := p.Execute("EXECUTE by_name ('O''Brien')")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 || rs.Row(0)[0] != int64(2) {
		t.Errorf("quoted-name lookup = %v", rs)
	}
	// Through the API the value carries its quote with no escaping at all.
	rs, err = p.ExecutePrepared(context.Background(), "by_name", []rowset.Value{"O'Brien"})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 || rs.Row(0)[0] != int64(2) {
		t.Errorf("API quoted-name lookup = %v", rs)
	}
}

func TestPrepareReportsParamCountAndTypeErrors(t *testing.T) {
	p := newPrepProvider(t)
	n, err := p.Prepare(context.Background(), "q1", "SELECT name FROM People WHERE id = ? AND age > ?")
	if err != nil || n != 2 {
		t.Fatalf("Prepare = %d, %v; want 2 params", n, err)
	}
	// Arguments coerce to the inferred column type; an uncoercible value is
	// a parameter error naming the slot.
	if _, err := p.ExecutePrepared(context.Background(), "q1", []rowset.Value{"not a number", 0.0}); err == nil || !strings.Contains(err.Error(), "parameter") {
		t.Errorf("uncoercible arg = %v", err)
	}
	// Statements that cannot parse are rejected at prepare time.
	if _, err := p.Prepare(context.Background(), "q2", "SELECT FROM WHERE"); err == nil {
		t.Error("prepare must parse the statement")
	}
	// Unknown columns surface as a clean error on execution, never a panic
	// or wrong rows.
	if _, err := p.Prepare(context.Background(), "q3", "SELECT nope FROM People"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ExecutePrepared(context.Background(), "q3", nil); err == nil {
		t.Error("executing a statement with an unknown column must error")
	}
	// Executing a parameterized statement without arguments is an error.
	if _, err := p.Execute("SELECT name FROM People WHERE id = ?"); err == nil || !strings.Contains(err.Error(), "PREPARE") {
		t.Errorf("bare parameterized statement = %v", err)
	}
}

func TestPreparedDMXPredictionWithParams(t *testing.T) {
	p := newPrepProvider(t)
	steps := []string{
		`CREATE MINING MODEL [AgeModel] ([id] LONG KEY, [name] TEXT DISCRETE,
			[age] DOUBLE DISCRETIZED PREDICT) USING [Decision_Trees]`,
		`INSERT INTO [AgeModel] ([id], [name], [age]) SELECT id, name, age FROM People`,
	}
	for _, s := range steps {
		if _, err := p.Execute(s); err != nil {
			t.Fatal(err)
		}
	}
	n, err := p.Prepare(context.Background(), "predict_one",
		`SELECT Predict([age]) FROM [AgeModel]
		NATURAL PREDICTION JOIN (SELECT name FROM People WHERE name = ?) AS t`)
	if err != nil || n != 1 {
		t.Fatalf("prepare prediction = %d, %v", n, err)
	}
	rs, err := p.ExecutePrepared(context.Background(), "predict_one", []rowset.Value{"Ann"})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 {
		t.Errorf("prediction rows = %d", rs.Len())
	}
}

// TestStalePlanReplansAfterSchemaChange is the stale-plan regression test:
// prepare against one schema, drop and recreate the table with a different
// schema, then execute — the statement must replan against the new catalog
// (or fail with the new schema's real error), never return rows shaped by
// the old plan.
func TestStalePlanReplansAfterSchemaChange(t *testing.T) {
	p := newPrepProvider(t)
	if _, err := p.Execute("PREPARE all_people AS SELECT * FROM People"); err != nil {
		t.Fatal(err)
	}
	rs, err := p.Execute("EXECUTE all_people")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Schema().Len() != 3 {
		t.Fatalf("pre-drop columns = %d", rs.Schema().Len())
	}
	for _, s := range []string{
		"DROP TABLE People",
		"CREATE TABLE People (id LONG, city TEXT)", // different shape
		"INSERT INTO People VALUES (1, 'Oslo')",
	} {
		if _, err := p.Execute(s); err != nil {
			t.Fatal(err)
		}
	}
	rs, err = p.Execute("EXECUTE all_people")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Schema().Len() != 2 || rs.Len() != 1 || rs.Row(0)[1] != "Oslo" {
		t.Errorf("post-recreate result = %v (schema %v), want the new schema's rows", rs, rs.Schema().Names())
	}
	// A prepared statement whose column vanished with the old schema now
	// fails with the new schema's real error, not the old plan's rows.
	if _, err := p.Execute("PREPARE by_age AS SELECT age FROM People WHERE id = ?"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute("EXECUTE by_age (1)"); err == nil {
		t.Error("age is gone from the new schema; execute must error, not serve the old plan")
	}
}

func TestStalePlanDroppedObjectErrors(t *testing.T) {
	p := newPrepProvider(t)
	if _, err := p.Execute("PREPARE all_people AS SELECT * FROM People"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute("DROP TABLE People"); err != nil {
		t.Fatal(err)
	}
	replans := metricValue(t, p.p, "prepared_replans_total")
	_, err := p.Execute("EXECUTE all_people")
	if err == nil || !strings.Contains(err.Error(), "People") {
		t.Errorf("execute after drop = %v, want the dropped table's error", err)
	}
	// The stale plan was detected and replanned (the replan compiles — table
	// resolution is lazy — and execution then reports the missing table).
	if got := metricValue(t, p.p, "prepared_replans_total"); got != replans+1 {
		t.Errorf("prepared_replans_total = %d, want %d", got, replans+1)
	}
}

func TestStalePreparedModelReplans(t *testing.T) {
	p := newPrepProvider(t)
	model := `CREATE MINING MODEL [M] ([id] LONG KEY, [name] TEXT DISCRETE,
		[age] DOUBLE DISCRETIZED PREDICT) USING [Decision_Trees]`
	train := `INSERT INTO [M] ([id], [name], [age]) SELECT id, name, age FROM People`
	for _, s := range []string{model, train} {
		if _, err := p.Execute(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Execute("PREPARE content AS SELECT * FROM [M].CONTENT"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute("EXECUTE content"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute("DROP MINING MODEL [M]"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute("EXECUTE content"); err == nil {
		t.Error("execute after model drop must fail")
	}
	// Recreating and retraining the model heals the handle via replan.
	for _, s := range []string{model, train} {
		if _, err := p.Execute(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Execute("EXECUTE content"); err != nil {
		t.Errorf("execute after recreate = %v, want replanned success", err)
	}
}

// metricValue reads one counter from the provider's registry. Deliberately
// out of band: a $SYSTEM query would itself travel through the plan cache and
// perturb the very counters under test.
func metricValue(t *testing.T, p *provider.Provider, name string) int64 {
	t.Helper()
	return p.Obs().Counter(name).Value()
}

// TestPlanCacheMetricsQueryable asserts the ISSUE acceptance surface: the
// cache counters show up as rows in $SYSTEM.DM_PROVIDER_METRICS.
func TestPlanCacheMetricsQueryable(t *testing.T) {
	p := newPrepProvider(t)
	if _, err := p.Execute("SELECT name FROM People"); err != nil {
		t.Fatal(err)
	}
	rs, err := p.Execute("SELECT * FROM $SYSTEM.DM_PROVIDER_METRICS")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"plan_cache_hits_total":          false,
		"plan_cache_misses_total":        false,
		"plan_cache_evictions_total":     false,
		"plan_cache_invalidations_total": false,
		"prepared_statements_total":      false,
		"prepared_exec_total":            false,
		"prepared_replans_total":         false,
	}
	for i := 0; i < rs.Len(); i++ {
		name, _ := rs.Row(i)[0].(string)
		if _, tracked := want[name]; tracked {
			want[name] = true
			if _, ok := rs.Row(i)[3].(int64); !ok {
				t.Errorf("metric %s VALUE = %T, want int64", name, rs.Row(i)[3])
			}
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("DM_PROVIDER_METRICS missing %s", name)
		}
	}
}

func TestPlanCacheMetricsAndNormalization(t *testing.T) {
	p := newPrepProvider(t)
	base := metricValue(t, p.p, "plan_cache_hits_total")
	if _, err := p.Execute("SELECT name FROM People WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	// Same statement, different keyword case and whitespace: same plan.
	if _, err := p.Execute("select   name from people WHERE id=1"); err != nil {
		t.Fatal(err)
	}
	if hits := metricValue(t, p.p, "plan_cache_hits_total"); hits != base+1 {
		t.Errorf("hits = %d, want %d (normalized re-execution must hit)", hits, base+1)
	}
	// A different string literal is a different plan: quoted text must not
	// case-fold into a collision.
	misses := metricValue(t, p.p, "plan_cache_misses_total")
	if _, err := p.Execute("SELECT id FROM People WHERE name = 'Ann'"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute("SELECT id FROM People WHERE name = 'ANN'"); err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, p.p, "plan_cache_misses_total"); got < misses+2 {
		t.Errorf("misses = %d, want >= %d (literal case must not share a plan)", got, misses+2)
	}
	// DDL invalidates cached plans for the table.
	if _, err := p.Execute("DROP TABLE People"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute("CREATE TABLE People (id LONG, name TEXT, age DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	inv := metricValue(t, p.p, "plan_cache_invalidations_total")
	if _, err := p.Execute("SELECT name FROM People WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, p.p, "plan_cache_invalidations_total"); got != inv+1 {
		t.Errorf("invalidations = %d, want %d", got, inv+1)
	}
}

func TestPreparedMetricsVisible(t *testing.T) {
	p := newPrepProvider(t)
	if _, err := p.Execute("PREPARE q AS SELECT name FROM People WHERE id = ?"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute("EXECUTE q (1)"); err != nil {
		t.Fatal(err)
	}
	if n := metricValue(t, p.p, "prepared_statements_total"); n != 1 {
		t.Errorf("prepared_statements_total = %d", n)
	}
	if n := metricValue(t, p.p, "prepared_exec_total"); n != 1 {
		t.Errorf("prepared_exec_total = %d", n)
	}
}

// TestConcurrentExecuteUnderEvictionPressure hammers a capacity-2 plan cache
// from many goroutines mixing EXECUTE, ad-hoc statements, and DDL bumps; run
// under -race this is the plan-cache thread-safety test. Cached and prepared
// plans are shared across goroutines, so any mutation of a bound AST would
// trip the race detector.
func TestConcurrentExecuteUnderEvictionPressure(t *testing.T) {
	p := newPrepProvider(t, provider.WithPlanCacheCap(2))
	for i := 0; i < 3; i++ {
		if _, err := p.Execute(fmt.Sprintf("PREPARE q%d AS SELECT name FROM People WHERE id = ?", i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				switch i % 4 {
				case 0, 1:
					rs, err := p.ExecutePrepared(context.Background(), fmt.Sprintf("q%d", i%3), []rowset.Value{int64(i%3 + 1)})
					if err != nil {
						t.Errorf("execute: %v", err)
						return
					}
					if rs.Len() != 1 {
						t.Errorf("rows = %d", rs.Len())
						return
					}
				case 2:
					// Ad-hoc statements churn the tiny cache.
					if _, err := p.Execute(fmt.Sprintf("SELECT id FROM People WHERE age > %d", i+g)); err != nil {
						t.Errorf("adhoc: %v", err)
						return
					}
				case 3:
					// Unrelated DDL moves the epoch under compiling plans.
					name := fmt.Sprintf("Scratch_%d_%d", g, i)
					if _, err := p.Execute("CREATE TABLE " + name + " (x LONG)"); err != nil {
						t.Errorf("ddl: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := metricValue(t, p.p, "plan_cache_evictions_total"); n == 0 {
		t.Error("capacity-2 cache under churn must evict")
	}
}

func TestShapeStatementsRejectParameters(t *testing.T) {
	p := newPrepProvider(t)
	shape := `SHAPE {SELECT id FROM People ORDER BY id}
	APPEND ({SELECT id AS pid, name FROM People WHERE name = ? ORDER BY pid}
	RELATE id TO pid) AS Kids`
	if _, err := p.Execute("PREPARE s AS " + shape); err == nil || !strings.Contains(err.Error(), "SHAPE") {
		t.Errorf("shape with params = %v, want unsupported error", err)
	}
}
