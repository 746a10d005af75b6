// Package par provides the bounded worker pool behind every parallel scan:
// the SQL engine's statement partitions — a scan, the hash joins it probes,
// and what the statement does with the rows — for a SELECT and for the rows an
// embedder hands it (the provider's PREDICTION JOIN cases). The index space is
// split into contiguous chunks, one goroutine per chunk up to the worker
// bound, so results keep their source order and callers can merge
// deterministically. Forks bounds recursive fork-join work (growing a
// decision tree's subtrees) under the same kind of worker bound.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// cancelPollMask sets how often workers poll for cancellation: every
// (cancelPollMask+1) iterations. Polling a cancel context takes a lock, so
// per-row checks would serialize the very scan the pool parallelizes; every
// 32 rows keeps cancellation prompt (a row is a full model evaluation) at
// negligible cost.
const cancelPollMask = 31

// ForEachCtx runs fn(i) for every i in [0, n) on up to workers goroutines.
// workers <= 0 means runtime.GOMAXPROCS(0). The index space is partitioned
// into contiguous chunks; fn must therefore be safe to call concurrently for
// distinct i but may assume it is called at most once per index.
//
// On error, remaining work is cancelled best-effort and the error with the
// LOWEST index is returned — the same error a sequential left-to-right scan
// would have surfaced first, keeping error reporting deterministic.
//
// Cancelling ctx stops the scan promptly (workers poll every few dozen
// iterations) and ForEachCtx returns ctx.Err(); an fn error found before the
// cancellation was observed still wins, keeping the deterministic-error
// contract for races between failure and cancellation.
func ForEachCtx(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	done := ctx.Done()
	if workers == 1 {
		for i := 0; i < n; i++ {
			if done != nil && i&cancelPollMask == 0 {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	// firstIdx holds the lowest failing index seen so far (n = none).
	// Workers stop once every index they could contribute is above it.
	var (
		firstIdx  atomic.Int64
		mu        sync.Mutex
		firstErr  error
		cancelled atomic.Bool
	)
	firstIdx.Store(int64(n))
	fail := func(i int, err error) {
		mu.Lock()
		if int64(i) < firstIdx.Load() {
			firstIdx.Store(int64(i))
			firstErr = err
		}
		mu.Unlock()
	}

	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		start, end := w*chunk, (w+1)*chunk
		if end > n {
			end = n
		}
		if start >= end {
			break
		}
		wg.Add(1)
		go func(start, end int) {
			defer wg.Done()
			for i := start; i < end; i++ {
				if done != nil && (i-start)&cancelPollMask == 0 {
					select {
					case <-done:
						cancelled.Store(true)
						return
					default:
					}
				}
				if int64(i) > firstIdx.Load() {
					return // a lower index already failed; our results past it are moot
				}
				if err := fn(i); err != nil {
					fail(i, err)
					return
				}
			}
		}(start, end)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if cancelled.Load() {
		return ctx.Err()
	}
	return nil
}

// Forks bounds recursive fork-join work to a number of goroutines computing at
// once, the first caller's included. A task forks onto a new goroutine only
// while one is free and otherwise runs inline on its caller; a goroutine
// waiting for the tasks it forked lends them its place meanwhile.
type Forks struct {
	free chan struct{} // one token per place no goroutine computes in
}

// NewForks bounds work to workers goroutines; workers <= 0 means
// runtime.GOMAXPROCS(0). At 1 nothing forks.
func NewForks(workers int) *Forks {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	f := &Forks{free: make(chan struct{}, workers)}
	for i := 1; i < workers; i++ {
		f.free <- struct{}{}
	}
	return f
}

// Run runs fn(i, forked) for every i in [0, n), forking each task but the last
// while a goroutine is free, and returns once all have finished: the error of
// the lowest failing index, as ForEachCtx does. forked tells a task whether it
// runs on a new goroutine or on the caller's. The first caller and the tasks
// may call Run.
func (f *Forks) Run(n int, fn func(i int, forked bool) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	forked := false
	for i := 0; i < n; i++ {
		if i < n-1 {
			select {
			case <-f.free:
				forked = true
				wg.Add(1)
				go func() {
					defer func() { f.free <- struct{}{}; wg.Done() }()
					errs[i] = fn(i, true)
				}()
				continue
			default:
			}
		}
		errs[i] = fn(i, false)
	}
	if forked {
		f.free <- struct{}{} // this goroutine computes nothing while it waits
		wg.Wait()
		<-f.free
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
