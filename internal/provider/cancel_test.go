package provider

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
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
