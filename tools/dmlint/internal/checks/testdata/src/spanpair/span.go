// Package spanfixture exercises the spanpair analyzer: spans must be
// ended on every path, and the statement-owned trace must never be
// captured by a worker goroutine.
package spanfixture

import (
	"context"
	"errors"

	"repro/internal/obs"
	"repro/internal/par"
)

func work() {}

func leakOnError(t *obs.Trace, b bool) error {
	sp := t.StartSpan("scan", "cases")
	if b {
		return errors.New("cancelled") // want "span sp .*not released"
	}
	t.EndSpan(sp)
	return nil
}

func leakAtEnd(t *obs.Trace) {
	sp := t.StartSpan("scan", "cases")
	_ = sp
} // want "span sp .*not released"

func goodDefer(t *obs.Trace) {
	sp := t.StartSpan("scan", "cases")
	defer t.EndSpan(sp)
	work()
}

func goodBothPaths(t *obs.Trace, b bool) error {
	sp := t.StartSpanStage(obs.Stage(0), "scan", "cases")
	if b {
		t.EndSpan(sp)
		return nil
	}
	t.EndSpan(sp)
	return nil
}

func goodTransfer(t *obs.Trace) {
	sp := t.StartSpan("scan", "cases")
	adopt(sp)
}

func adopt(sp obs.SpanRef) {}

func badGoroutineCapture(t *obs.Trace) {
	sp := t.StartSpan("scan", "cases")
	go func() {
		_ = sp // want "span sp is captured by a goroutine"
	}()
	t.EndSpan(sp)
}

func badTraceCapture(t *obs.Trace) error {
	return par.NewForks(2).Run(context.TODO(), 4, func(i int, _ bool) error {
		_ = t // want "trace t is captured by a par worker"
		return nil
	})
}

func badStageTimerCapture(t *obs.Trace) error {
	stage := t.StartStage(obs.StageScan)
	defer stage.Stop()
	return par.NewForks(2).Run(context.TODO(), 4, func(i int, _ bool) error {
		stage.Stop() // want "stage timer stage is captured by a par worker"
		return nil
	})
}

func goodWorkerOwnSpan(t *obs.Trace) {
	sp := t.StartSpan("scan", "cases")
	defer t.EndSpan(sp)
	go func() {
		work() // creates no spans, touches no trace: fine
	}()
}

// goodAllowedCapture documents a sanctioned exception.
//
//dmlint:allow spanpair — fixture: single-worker fallback runs on the statement goroutine.
func goodAllowedCapture(t *obs.Trace) {
	sp := t.StartSpan("scan", "cases")
	go func() {
		t.EndSpan(sp)
	}()
}
