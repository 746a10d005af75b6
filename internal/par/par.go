// Package par is the one way the provider spreads work over cores: the SQL
// engine's statement partitions — a scan, the hash joins it probes, and what
// the statement does with the rows, for a SELECT and for the cases of a
// PREDICTION JOIN — and the sibling subtrees of a growing decision tree. A
// caller runs tasks [0, n) through Forks.Run, which hands them out in index
// order to helper goroutines while places are free and otherwise runs them
// on the caller's goroutine. Callers give each task its own slot to write
// and merge the slots in index order, so a result does not depend on what
// ran where.
//
// Two bounds hold at once: a Forks' own (a statement's or a training's worker
// count) and one process-wide, GOMAXPROCS(0)−1 helpers computing across every
// Forks. Nothing ever waits for a place, so Run nests without deadlock.
package par

import (
	"context"
	"runtime"
	"sync/atomic"
)

// helpers counts the helper goroutines computing process-wide, less the
// places lent by goroutines waiting for their forks: the one CPU budget every
// Forks shares.
var helpers atomic.Int32

// Forks bounds fork-join work to a number of goroutines computing at once,
// the caller's included. A goroutine waiting for its helpers lends its place,
// in this bound and in the process-wide one, meanwhile.
type Forks struct {
	max  int32        // helpers this Forks may have computing at once
	busy atomic.Int32 // its helpers computing, less places lent
}

// NewForks bounds work to workers goroutines; workers <= 0 means
// runtime.GOMAXPROCS(0). At 1 nothing forks.
func NewForks(workers int) *Forks {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Forks{max: int32(workers - 1)}
}

// take claims a helper's place in both bounds, or reports that none is free.
// It reads GOMAXPROCS on every call, never once at init, because go test -cpu
// changes it within one process; a Run that cannot fork never reads it.
func (f *Forks) take() bool {
	if f.busy.Add(1) <= f.max {
		if helpers.Add(1) < int32(runtime.GOMAXPROCS(0)) {
			return true
		}
		helpers.Add(-1)
	}
	f.busy.Add(-1)
	return false
}

func (f *Forks) release() { f.busy.Add(-1); helpers.Add(-1) }

// Run runs fn(i, forked) for every i in [0, n) and returns once all have
// finished. The caller hands out indices in order: while a place is free it
// starts a helper goroutine with the next one, which keeps taking the next
// until none is left; otherwise the caller runs it inline. The last task
// never forks: the caller runs it once every other index is handed out.
// forked tells a task whether it runs on a helper or on the caller's
// goroutine; the caller and the tasks may call Run again.
//
// Once a task fails no further index is handed out, and every lower one was
// handed out before it: Run returns the error of the lowest failing index,
// the one a front-to-back loop would have hit first. A task that finds
// ctx.Done() closed does not start and fails with ctx.Err().
func (f *Forks) Run(ctx context.Context, n int, fn func(i int, forked bool) error) error {
	r := &run{ctx: ctx, fn: fn, last: n - 1, handoff: make(chan struct{})}
	for i := r.claim(); i < r.last; i = r.claim() {
		if f.take() {
			r.left.Add(1)
			go r.help(f, i)
		} else {
			r.task(i, false)
		}
	}
	if n > 0 && r.failed.Load() == nil {
		r.task(r.last, false)
	}
	if r.left.Add(-1) != -1 {
		f.release() // lend this place while waiting; the last helper gives one back
		<-r.handoff
	}
	if fail := r.failed.Load(); fail != nil {
		return fail.err
	}
	return nil
}

// run is one Run call's state, shared with its helpers.
type run struct {
	ctx    context.Context
	fn     func(i int, forked bool) error
	last   int
	next   atomic.Int64            // the next index to hand out; last once a task failed
	failed atomic.Pointer[failure] // the lowest failing index and its error
	// left counts the running helpers, less one once the caller waits. A
	// helper that brings it to -1 finishes after the caller lent its places,
	// and hands its own over through handoff instead of releasing them.
	left    atomic.Int32
	handoff chan struct{}
}

type failure struct {
	i   int
	err error
}

func (r *run) claim() int { return int(r.next.Add(1) - 1) }

func (r *run) task(i int, forked bool) {
	var err error
	select {
	case <-r.ctx.Done():
		err = r.ctx.Err()
	default:
		err = r.fn(i, forked)
	}
	for fail := r.failed.Load(); err != nil && (fail == nil || i < fail.i); fail = r.failed.Load() {
		if r.failed.CompareAndSwap(fail, &failure{i, err}) {
			r.next.Store(int64(r.last)) // hand out no further index
			return
		}
	}
}

// help runs task i and then the next unclaimed ones below the last.
func (r *run) help(f *Forks, i int) {
	for ; i < r.last; i = r.claim() {
		r.task(i, true)
	}
	if r.left.Add(-1) == -1 {
		close(r.handoff)
	} else {
		f.release()
	}
}
