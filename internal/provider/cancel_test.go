package provider

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algo/nbayes"
	"repro/internal/core"
	"repro/internal/obs"
)

// cancelStressQuery is a scan heavy enough that cancellation usually lands
// mid-flight rather than before the first poll or after the last row: each
// customer is predicted ten times over (a cross join), so the scan outlasts
// most of the stress test's cancellation delays however fast a case scores.
const cancelStressQuery = `SELECT t.[Customer ID], Predict([Age]), PredictProbability([Age])
	FROM [Age Prediction]
	NATURAL PREDICTION JOIN (SELECT c.[Customer ID], c.Gender FROM Customers AS c, Customers AS d WHERE d.[Customer ID] <= 10) AS t`

// TestCancelledContextAbortsBeforeWork covers the cheap guarantee: an
// already-cancelled context never reaches execution and classifies as
// cancelled in the query log.
func TestCancelledContextAbortsBeforeWork(t *testing.T) {
	p := trainedProviderWorkers(t, 4, 40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := p.Obs().QueryLog().Total()
	_, err := p.NewSession().Execute(ctx, cancelStressQuery)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	recs := p.Obs().QueryLog().Snapshot()
	if p.Obs().QueryLog().Total() != before+1 {
		t.Fatalf("query log total = %d, want %d", p.Obs().QueryLog().Total(), before+1)
	}
	last := recs[len(recs)-1]
	if last.ErrClass != "cancelled" {
		t.Errorf("ErrClass = %q, want cancelled", last.ErrClass)
	}
}

// TestConcurrentCancellationStress hammers one session's Execute from many
// goroutines while their contexts are cancelled mid-PREDICTION JOIN. Run
// under -race, it asserts three properties: every call returns (either the
// rowset or a cancellation/deadline error, never anything else), no worker
// goroutines leak, and the DM_QUERY_LOG stays consistent — one record per
// statement, monotonically increasing sequence numbers.
func TestConcurrentCancellationStress(t *testing.T) {
	p := trainedProviderWorkers(t, 8, 120)
	s := p.NewSession()
	baseline := runtime.NumGoroutine()
	logBefore := p.Obs().QueryLog().Total()

	const (
		callers  = 8
		perCall  = 6
		attempts = callers * perCall
	)
	var wg sync.WaitGroup
	errCh := make(chan error, attempts)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCall; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				// Stagger the cancellation over the scan's lifetime: some
				// fire immediately, some mid-scan, some likely after.
				delay := time.Duration((c*perCall+i)%12) * 200 * time.Microsecond
				timer := time.AfterFunc(delay, cancel)
				_, err := s.Execute(ctx, cancelStressQuery)
				timer.Stop()
				cancel()
				if err != nil && !errors.Is(err, context.Canceled) {
					errCh <- err
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("unexpected error class: %v", err)
	}

	// Every statement must have produced exactly one query-log record, with
	// strictly increasing sequence numbers (ring buffer consistency).
	if got := p.Obs().QueryLog().Total() - logBefore; got != attempts {
		t.Errorf("query log grew by %d records, want %d", got, attempts)
	}
	recs := p.Obs().QueryLog().Snapshot()
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq <= recs[i-1].Seq {
			t.Fatalf("query log sequence not increasing: %d then %d", recs[i-1].Seq, recs[i].Seq)
		}
	}
	var cancelled int
	for _, r := range recs {
		if r.ErrClass == "cancelled" {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Error("no cancellations recorded; stress test exercised nothing")
	}
	t.Logf("%d/%d statements cancelled", cancelled, attempts)

	// All scan workers must have exited: the goroutine count settles back
	// to (near) the pre-stress baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d now vs %d baseline\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDeadlineExceededClassifiesCancelled asserts timeouts share the
// cancelled error class, per the query-log taxonomy.
func TestDeadlineExceededClassifiesCancelled(t *testing.T) {
	p := trainedProviderWorkers(t, 4, 60)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Microsecond) // ensure the deadline has passed
	_, err := p.NewSession().Execute(ctx, cancelStressQuery)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	recs := p.Obs().QueryLog().Snapshot()
	if last := recs[len(recs)-1]; last.ErrClass != "cancelled" {
		t.Errorf("ErrClass = %q, want cancelled", last.ErrClass)
	}
}

// blockingAlgorithm trains at once until block is set; then Train reports
// that it started and waits for its context to be done.
type blockingAlgorithm struct {
	block   *atomic.Bool
	started chan struct{}
}

func (blockingAlgorithm) Name() string               { return "Blocking" }
func (blockingAlgorithm) Description() string        { return "waits for its context" }
func (blockingAlgorithm) SupportsPredictTable() bool { return false }
func (a blockingAlgorithm) Train(ctx context.Context, cs *core.Caseset, targets []int, params map[string]string, workers int) (core.TrainedModel, error) {
	if !a.block.Load() {
		return nbayes.New().Train(ctx, cs, targets, params, workers)
	}
	a.started <- struct{}{}
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestInsertIntoCancelledMidTrain: an INSERT INTO whose context is cancelled,
// or times out, while the algorithm trains returns the context's error, is
// logged as cancelled, and leaves the published model as it was.
func TestInsertIntoCancelledMidTrain(t *testing.T) {
	p := MustNew()
	algo := blockingAlgorithm{block: new(atomic.Bool), started: make(chan struct{}, 1)}
	p.Registry.Register(algo)
	setupCustomerData(t, p, 50)
	mustExec(t, p, "CREATE MINING MODEL B ([Customer ID] LONG KEY, Age DOUBLE CONTINUOUS, Gender TEXT DISCRETE PREDICT) USING Blocking")
	const insert = "INSERT INTO B ([Customer ID], Age, Gender) SELECT [Customer ID], Age, Gender FROM Customers"
	mustExec(t, p, insert)
	algo.block.Store(true)
	caseCount := func() int {
		e, err := p.entry("B")
		if err != nil {
			t.Fatal(err)
		}
		return e.model.CaseCount
	}
	trained := caseCount()

	cancelOnStart := func() (context.Context, context.CancelFunc) {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			<-algo.started
			cancel()
		}()
		return ctx, cancel
	}
	timeOut := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(context.Background(), 50*time.Millisecond)
	}
	for _, tc := range []struct {
		ctx  func() (context.Context, context.CancelFunc)
		want error
	}{{cancelOnStart, context.Canceled}, {timeOut, context.DeadlineExceeded}} {
		ctx, cancel := tc.ctx()
		_, err := p.NewSession().Execute(ctx, insert)
		cancel()
		if !errors.Is(err, tc.want) {
			t.Fatalf("err = %v, want %v", err, tc.want)
		}
		if tc.want == context.DeadlineExceeded {
			select {
			case <-algo.started:
			default:
				t.Fatal("the statement timed out before training started")
			}
		}
		recs := p.Obs().QueryLog().Snapshot()
		if last := recs[len(recs)-1]; last.Statement != insert || last.ErrClass != "cancelled" {
			t.Errorf("logged %q as %q, want the INSERT INTO as cancelled", last.Statement, last.ErrClass)
		}
		if n := caseCount(); n != trained {
			t.Errorf("%v: the model has %d cases, want the %d it had", tc.want, n, trained)
		}
	}
}

// pollCancel is a context that is cancelled from its (n+1)th Err call on. Done
// is nil, so only code that polls Err notices, and each poll point in turn
// can be made the one that finds the statement cancelled.
type pollCancel struct {
	context.Context
	left atomic.Int64
}

func (c *pollCancel) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// findSpan returns the first span of operator op in the tree under sp.
func findSpan(sp *obs.Span, op string) *obs.Span {
	if sp == nil || sp.Kind == op {
		return sp
	}
	for _, c := range sp.Children {
		if found := findSpan(c, op); found != nil {
			return found
		}
	}
	return nil
}

// TestInsertIntoCancelledAtEveryPoll cancels an INSERT INTO at each of its
// poll points in turn, those between the tokenizer's phases included: every
// cancelled statement returns context.Canceled and publishes nothing, and the
// first uncancelled one trains the model.
func TestInsertIntoCancelledAtEveryPoll(t *testing.T) {
	p := MustNew(WithParallelism(2))
	setupCustomerData(t, p, 3000)
	mustExec(t, p, strings.Replace(createAgeModel, "Decision_Trees_101", "Naive_Bayes", 1))
	midTokenize := 0
	for polls := int64(0); ; polls++ {
		ctx := &pollCancel{Context: context.Background()}
		ctx.left.Store(polls)
		_, err := p.NewSession().Execute(ctx, insertAgeModel)
		if err == nil {
			break
		}
		if !errors.Is(err, context.Canceled) || polls > 200 {
			t.Fatalf("cancelled at poll %d: err = %v, want context.Canceled", polls, err)
		}
		e, err := p.entry("Age Prediction")
		if err != nil {
			t.Fatal(err)
		}
		if e.model.CaseCount != 0 || e.model.Space.Len() != 2 {
			t.Fatalf("cancelled at poll %d: the published model has %d cases and %d attributes", polls, e.model.CaseCount, e.model.Space.Len())
		}
		log := p.Obs().QueryLog()
		recs := log.Snapshot()
		// A tokenize span that counts no cases ended before its cases did.
		if rec, ok := log.FindRetained(recs[len(recs)-1].Seq); ok {
			if tok := findSpan(rec.Root.Span(), "tokenize"); tok != nil && tok.Rows == 0 {
				midTokenize++
			}
		}
	}
	if midTokenize == 0 {
		t.Error("no poll point cancelled the statement while it tokenized")
	}
	if e, _ := p.entry("Age Prediction"); e.model.CaseCount != 3000 {
		t.Errorf("the uncancelled INSERT trained %d cases, want 3000", e.model.CaseCount)
	}
}
