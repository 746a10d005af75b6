package sqlengine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rowset"
	"repro/internal/storage"
)

// newBigEngine builds an engine with a single table of n rows, big enough
// that a self cross join produces n*n candidate rows.
func newBigEngine(t *testing.T, n int) *Engine {
	t.Helper()
	e := NewEngine(storage.NewDatabase())
	if _, err := e.Exec("CREATE TABLE Big (id LONG, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("INSERT INTO Big VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, 'r%d')", i, i)
	}
	if _, err := e.Exec(b.String()); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestExecContextPreCancelledAbortsScan is the regression test for the
// uncancellable-scan bug: before the cancellation poll existed, a SELECT
// under an already-cancelled context ran the whole cross join to completion
// and returned its rowset with a nil error.
func TestExecContextPreCancelledAbortsScan(t *testing.T) {
	e := newBigEngine(t, 200)
	const q = "SELECT COUNT(*) FROM Big AS a, Big AS b WHERE a.id < b.id"

	// Sanity: the statement itself is valid and produces the expected count,
	// so the error below can only come from cancellation.
	rs, err := e.ExecContext(context.Background(), q)
	if err != nil {
		t.Fatalf("uncancelled run: %v", err)
	}
	if got := rs.Row(0)[0]; got != int64(200*199/2) {
		t.Fatalf("count = %v", got)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ExecContext(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCancelCursorStopsMidStream exercises the poll point directly: cancel
// after some rows have streamed and assert the cursor surfaces the
// cancellation within one poll interval instead of draining its source. The
// source yields DefaultBatchSize-row batches; the cancel cursor doles them out
// in windows of at most pollEvery rows with a poll before each, so a 1024-row
// batch does not stretch the poll interval 16×.
func TestCancelCursorStopsMidStream(t *testing.T) {
	e := newBigEngine(t, 4*rowset.DefaultBatchSize)
	rs := mustQuery(t, e, "SELECT * FROM Big")
	ctx, cancel := context.WithCancel(context.Background())
	c := &cancelCursor{src: newSliceCursor(rs.Schema(), rs.Rows()), ctx: ctx, done: ctx.Done()}
	defer c.Close() //nolint:errcheck

	b, err := c.NextBatch()
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() == 0 || b.Len() > pollEvery {
		t.Fatalf("window = %d rows, want 1..%d", b.Len(), pollEvery)
	}
	cancel()
	// The very next pull starts with a poll, so at most one more window —
	// pollEvery rows — can flow after the cancellation.
	rows := 0
	for rows <= pollEvery {
		b, err := c.NextBatch()
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			return
		}
		if b.Empty() {
			t.Fatal("source drained before the cancellation was observed")
		}
		rows += b.Len()
	}
	t.Fatalf("%d rows flowed after cancellation, want <= %d", rows, pollEvery)
}

// TestLoopJoinPreCancelled: the poll sits above the joins, so a pre-cancelled
// statement over a nested-loop join — cross or non-equi — aborts before the
// join hands on a single batch, whatever its pair space.
func TestLoopJoinPreCancelled(t *testing.T) {
	e := newBigEngine(t, 200)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, q := range []string{
		"SELECT a.id, b.id FROM Big AS a, Big AS b",
		"SELECT a.id, b.id FROM Big AS a LEFT JOIN Big AS b ON a.id < b.id",
	} {
		reg := obs.NewRegistry()
		e.Instrument(reg)
		if _, err := e.ExecContext(ctx, q); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", q, err)
		}
		if n := reg.Counter(obs.MetricSQLBatchesTotal).Value(); n != 0 {
			t.Errorf("%s: %d batches flowed under a cancelled context", q, n)
		}
	}
}

// TestCancelCursorPreCancelled: a pre-cancelled context aborts before any row
// flows.
func TestCancelCursorPreCancelled(t *testing.T) {
	e := newBigEngine(t, 100)
	rs := mustQuery(t, e, "SELECT * FROM Big")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := &cancelCursor{src: newSliceCursor(rs.Schema(), rs.Rows()), ctx: ctx, done: ctx.Done()}
	defer c.Close() //nolint:errcheck
	if b, err := c.NextBatch(); !errors.Is(err, context.Canceled) || b.Len() != 0 {
		t.Fatalf("NextBatch = %d rows, err %v; want 0 rows and context.Canceled", b.Len(), err)
	}
}

// TestHashJoinCancelledMidStatement: cancelling a partitioned hash join while
// it runs — 20000 Big rows probing an index whose every key has 1000 rows, 20
// million joined rows — returns ctx.Err() promptly, and no partition
// goroutine outlives the statement. A pre-cancelled context stops the index
// build before any row is joined.
func TestHashJoinCancelledMidStatement(t *testing.T) {
	e := newBigEngine(t, 20000)
	if _, err := e.Exec("CREATE TABLE Dup (id LONG)"); err != nil {
		t.Fatal(err)
	}
	dup, _ := e.DB.Table("Dup")
	for i := 0; i < 20000; i++ {
		if err := dup.Insert(rowset.Row{int64(i % 20)}); err != nil {
			t.Fatal(err)
		}
	}
	e.Workers = 2
	const q = "SELECT COUNT(*) FROM Big JOIN Dup ON Big.id = Dup.id JOIN Dup AS d ON Dup.id = d.id"
	reg := obs.NewRegistry()
	e.Instrument(reg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ExecContext(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}
	if n := reg.Counter(obs.MetricSQLBatchesTotal).Value(); n != 0 {
		t.Errorf("pre-cancelled: %d batches flowed", n)
	}

	goroutines := runtime.NumGoroutine()
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var cancelled time.Time
	timer := time.AfterFunc(50*time.Millisecond, func() {
		cancelled = time.Now()
		cancel()
	})
	defer timer.Stop()
	if _, err := e.ExecContext(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if late := time.Since(cancelled); late > 2*time.Second {
		t.Errorf("returned %v after the cancellation", late)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the statement, %d before", runtime.NumGoroutine(), goroutines)
		}
	}
}

// tripCtx cancels itself the n-th time anybody asks for its Done channel, so
// a test places a cancellation at a point of the statement's own progress —
// its n-th poll — rather than of the clock.
type tripCtx struct {
	context.Context
	cancel context.CancelFunc
	n      atomic.Int64
}

func newTripCtx(n int64) *tripCtx {
	c := &tripCtx{}
	c.Context, c.cancel = context.WithCancel(context.Background())
	c.n.Store(n)
	return c
}

func (c *tripCtx) Done() <-chan struct{} {
	if c.n.Add(-1) == 0 {
		c.cancel()
	}
	return c.Context.Done()
}

// TestJoinIndexBuildCancelled: a hash join reads its 100000-row right input
// into the index in morsels and polls ctx between them, so a cancellation
// that lands during the build stops the statement there — context.Canceled,
// the join never planned (the trace ends at the right input's scan), no batch
// run. Successive polls are tried as the cancellation point until two of them
// fall inside the build: one before its first morsel, one between morsels.
func TestJoinIndexBuildCancelled(t *testing.T) {
	e := newBigEngine(t, 100)
	if _, err := e.Exec("CREATE TABLE Many (id LONG)"); err != nil {
		t.Fatal(err)
	}
	many, _ := e.DB.Table("Many")
	for i := 0; i < 100000; i++ {
		if err := many.Insert(rowset.Row{int64(i % 5000)}); err != nil {
			t.Fatal(err)
		}
	}
	e.Workers = 2
	reg := obs.NewRegistry()
	e.Instrument(reg)
	batches := reg.Counter(obs.MetricSQLBatchesTotal)
	const q = "SELECT COUNT(*) FROM Big JOIN Many ON Big.id = Many.id"
	inBuild := 0
	for n := int64(1); inBuild < 2; n++ {
		tr := obs.NewTrace(q, "")
		ctx := newTripCtx(n)
		before := batches.Value()
		_, err := e.ExecContext(obs.WithTrace(ctx, tr), q)
		ctx.cancel()
		if err == nil {
			t.Fatalf("the statement finished under a cancellation at poll %d; %d polls before it fell inside the index build", n, inBuild)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at poll %d: err = %v, want context.Canceled", n, err)
		}
		if spanKinds(tr.Root()) == "statement,select,scan,scan" {
			inBuild++
			if ran := batches.Value() - before; ran != 0 {
				t.Errorf("cancelled at poll %d, inside the index build: %d batches ran", n, ran)
			}
		}
	}
}

// TestPreCancelledInternalQueriesRunNothing: the queries a statement runs on
// its own behalf — a view's body, a subquery, the SELECT of an INSERT … SELECT
// — run under the statement's context, so under an already-cancelled one each
// statement reports context.Canceled without producing a single batch (and the
// INSERT writes no row).
func TestPreCancelledInternalQueriesRunNothing(t *testing.T) {
	e := newBigEngine(t, 200)
	mustQuery(t, e, "CREATE VIEW Pairs AS SELECT a.id AS id FROM Big AS a, Big AS b WHERE a.id < b.id")
	mustQuery(t, e, "CREATE TABLE Dst (id LONG)")
	reg := obs.NewRegistry()
	e.Instrument(reg)
	batches := reg.Counter(obs.MetricSQLBatchesTotal)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, q := range []string{
		"SELECT COUNT(*) FROM Pairs",
		"SELECT (SELECT COUNT(*) FROM Big AS a, Big AS b WHERE a.id < b.id) AS n",
		"INSERT INTO Dst SELECT a.id FROM Big AS a, Big AS b WHERE a.id < b.id",
	} {
		before := batches.Value()
		if _, err := e.ExecContext(ctx, q); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", q, err)
		}
		if n := batches.Value() - before; n != 0 {
			t.Errorf("%s: %d batches ran under a cancelled context", q, n)
		}
	}
	if rs := mustQuery(t, e, "SELECT COUNT(*) FROM Dst"); rs.Row(0)[0] != int64(0) {
		t.Errorf("cancelled INSERT … SELECT wrote %v rows", rs.Row(0)[0])
	}
}
