package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs sets GOMAXPROCS for the rest of the test.
func withProcs(t *testing.T, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// peakGauge counts tasks computing at once and keeps the highest count.
type peakGauge struct{ active, peak atomic.Int32 }

func (g *peakGauge) enter() {
	n := g.active.Add(1)
	for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
	}
}

func (g *peakGauge) leave() { g.active.Add(-1) }

// fanOut runs a recursive 4-way fan-out, 3 levels deep, on f: every leaf
// marks ran[id] and holds its place for a moment.
func fanOut(f *Forks, g *peakGauge, ran *[64]atomic.Int32, onFork func(forked bool)) error {
	var grow func(depth, id int) error
	grow = func(depth, id int) error {
		if depth == 3 {
			g.enter()
			time.Sleep(100 * time.Microsecond)
			ran[id].Add(1)
			g.leave()
			return nil
		}
		return f.Run(context.Background(), 4, func(i int, forked bool) error {
			onFork(forked)
			return grow(depth+1, id*4+i)
		})
	}
	return grow(0, 0)
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	withProcs(t, 8)
	for _, workers := range []int{0, 1, 3, 8, 100} {
		n := 57
		counts := make([]atomic.Int32, n)
		err := NewForks(workers).Run(context.Background(), n, func(i int, _ bool) error {
			counts[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachZeroAndNegativeN(t *testing.T) {
	called := false
	for _, n := range []int{0, -3} {
		if err := NewForks(4).Run(context.Background(), n, func(int, bool) error { called = true; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if called {
		t.Fatal("fn called for empty index space")
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	// Errors at several indexes; the lowest one must win regardless of
	// scheduling, matching what a sequential scan would report.
	withProcs(t, 8)
	bad := map[int]bool{5: true, 20: true, 41: true}
	for _, workers := range []int{2, 4, 16} {
		err := NewForks(workers).Run(context.Background(), 50, func(i int, _ bool) error {
			if bad[i] {
				return fmt.Errorf("fail at %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail at 5" {
			t.Fatalf("workers=%d: err = %v, want fail at 5", workers, err)
		}
	}
}

func TestForEachSequentialStopsAtFirstError(t *testing.T) {
	var ran []int
	sentinel := errors.New("stop")
	err := NewForks(1).Run(context.Background(), 10, func(i int, _ bool) error {
		ran = append(ran, i)
		if i == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if len(ran) != 4 {
		t.Fatalf("ran %v, want [0 1 2 3]", ran)
	}
}

// TestForksBoundAndCover: a recursive fan-out (4 ways, 3 levels) runs every
// leaf once and never more than the bound at once; at bound 1 nothing forks.
func TestForksBoundAndCover(t *testing.T) {
	withProcs(t, 16) // above every bound, so the Forks' own bound is the one that binds
	for _, workers := range []int{1, 2, 3, 8} {
		var g peakGauge
		var ran [64]atomic.Int32
		err := fanOut(NewForks(workers), &g, &ran, func(forked bool) {
			if forked && workers == 1 {
				t.Error("bound 1 forked a task")
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for id := range ran {
			if c := ran[id].Load(); c != 1 {
				t.Fatalf("workers=%d: leaf %d ran %d times", workers, id, c)
			}
		}
		if p := g.peak.Load(); p > int32(workers) {
			t.Errorf("workers=%d: %d leaves ran at once", workers, p)
		}
	}
}

func TestForksReturnsLowestIndexError(t *testing.T) {
	f := NewForks(4)
	err := f.Run(context.Background(), 6, func(i int, _ bool) error {
		if i >= 2 {
			return fmt.Errorf("task %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "task 2" {
		t.Fatalf("Run = %v, want task 2's error", err)
	}
}

// TestRunProcessWideBound: K top-level Runs at once, each its own Forks of a
// recursive fan-out, together never have more than GOMAXPROCS−1 helpers
// computing beside their K callers; one alone stays within its own bound and
// the cores. At GOMAXPROCS 1 nothing forks.
func TestRunProcessWideBound(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		withProcs(t, procs)
		for _, k := range []int{1, 4, 8} {
			for _, workers := range []int{2, 8} {
				var g peakGauge
				var wg sync.WaitGroup
				for c := 0; c < k; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						var ran [64]atomic.Int32
						err := fanOut(NewForks(workers), &g, &ran, func(forked bool) {
							if forked && procs == 1 {
								t.Error("GOMAXPROCS 1 forked a task")
							}
						})
						if err != nil {
							t.Error(err)
						}
						for id := range ran {
							if c := ran[id].Load(); c != 1 {
								t.Errorf("leaf %d ran %d times", id, c)
							}
						}
					}()
				}
				wg.Wait()
				bound := procs - 1 + k
				if k == 1 {
					bound = min(workers, procs)
				}
				if p := int(g.peak.Load()); p > bound {
					t.Errorf("GOMAXPROCS=%d K=%d workers=%d: %d leaves ran at once, want ≤ %d", procs, k, workers, p, bound)
				}
				if h := helpers.Load(); h != 0 {
					t.Fatalf("GOMAXPROCS=%d K=%d workers=%d: %d helper places still held", procs, k, workers, h)
				}
			}
		}
	}
}

// TestRunCancel: a Run cancelled midway returns context.Canceled, starts no
// task once the cancel is seen — at bound 1 none after it, at bound W at most
// the W−1 others already past their check — and leaves no goroutine behind.
func TestRunCancel(t *testing.T) {
	withProcs(t, 8)
	for _, workers := range []int{1, 2, 8} {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		var cancelled atomic.Bool
		var ran, late atomic.Int32
		err := NewForks(workers).Run(ctx, 1000, func(i int, _ bool) error {
			if cancelled.Load() {
				late.Add(1)
			}
			ran.Add(1)
			if i == 10 {
				cancel()
				cancelled.Store(true)
			}
			time.Sleep(10 * time.Microsecond)
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := ran.Load(); n >= 1000 {
			t.Fatalf("workers=%d: all %d tasks ran", workers, n)
		}
		if l := late.Load(); l > int32(workers-1) {
			t.Errorf("workers=%d: %d tasks started after the cancel", workers, l)
		}
		// Run returns after its helpers' last step; wait for them to exit.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("workers=%d: %d goroutines left behind", workers, n-base)
		}
		if h := helpers.Load(); h != 0 {
			t.Errorf("workers=%d: %d helper places still held", workers, h)
		}
	}
}
