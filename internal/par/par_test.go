package par

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		n := 57
		counts := make([]atomic.Int32, n)
		err := ForEachCtx(context.Background(), n, workers, func(i int) error {
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
	if err := ForEachCtx(context.Background(), 0, 4, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := ForEachCtx(context.Background(), -3, 4, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("fn called for empty index space")
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	// Errors at several indexes; the lowest one must win regardless of
	// scheduling, matching what a sequential scan would report.
	bad := map[int]bool{5: true, 20: true, 41: true}
	for _, workers := range []int{2, 4, 16} {
		err := ForEachCtx(context.Background(), 50, workers, func(i int) error {
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
	err := ForEachCtx(context.Background(), 10, 1, func(i int) error {
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
	for _, workers := range []int{1, 2, 3, 8} {
		f := NewForks(workers)
		var ran [64]atomic.Int32
		var active, peak atomic.Int32
		var grow func(depth, id int) error
		grow = func(depth, id int) error {
			if depth == 3 {
				n := active.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				time.Sleep(100 * time.Microsecond)
				ran[id].Add(1)
				active.Add(-1)
				return nil
			}
			return f.Run(4, func(i int, forked bool) error {
				if forked && workers == 1 {
					t.Error("bound 1 forked a task")
				}
				return grow(depth+1, id*4+i)
			})
		}
		if err := grow(0, 0); err != nil {
			t.Fatal(err)
		}
		for id := range ran {
			if c := ran[id].Load(); c != 1 {
				t.Fatalf("workers=%d: leaf %d ran %d times", workers, id, c)
			}
		}
		if p := peak.Load(); p > int32(workers) {
			t.Errorf("workers=%d: %d leaves ran at once", workers, p)
		}
	}
}

func TestForksReturnsLowestIndexError(t *testing.T) {
	f := NewForks(4)
	err := f.Run(6, func(i int, _ bool) error {
		if i >= 2 {
			return fmt.Errorf("task %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "task 2" {
		t.Fatalf("Run = %v, want task 2's error", err)
	}
}
