package obs

import (
	"context"
	"time"
)

// Trace accumulates one statement's timings while it executes; when the
// statement finishes the provider turns it into a query-log Record. A Trace
// is owned by the goroutine executing the statement — partition workers never
// touch it (the statement's goroutine records the fan-out before they fork and
// their row counts after they join) — so its fields need no synchronization.
//
// Besides the flat per-stage timers, a trace grows a hierarchical span tree
// (see span.go): StartSpan/EndSpan push and pop operator spans under a root
// "statement" span, and stage-attributed spans feed the flat timers on close.
//
// All methods are safe on a nil receiver: an uninstrumented provider passes
// nil traces through the same code paths at the cost of a pointer test.
type Trace struct {
	start       time.Time
	statement   string
	origin      string
	kind        string
	errClass    string
	stages      [NumStages]time.Duration
	rowsIn      int64
	rowsOut     int64
	parallelism int

	// root anchors the span tree; stack tracks the innermost open span
	// (stack[0] is always root). Statement-goroutine-owned, like the rest.
	root  *Span
	stack []*Span

	// detailed requests per-operator timing from streaming executors. The
	// streaming pipeline interleaves all operators in one drain loop, so
	// attributing wall time to individual operators costs two clock reads per
	// row per operator; EXPLAIN ANALYZE asks for that explicitly, and the
	// statement store turns it on automatically while a statement class is
	// running hot.
	detailed bool

	// store, when set, is consulted once the statement class is known
	// (SetKind) to decide whether this statement should record per-operator
	// detail; see QueryLog.ShouldDetail.
	store *QueryLog
}

// NewTrace starts a trace for one statement.
func NewTrace(statement, origin string) *Trace {
	t := &Trace{start: time.Now(), statement: statement, origin: origin}
	t.root = &Span{Kind: "statement", start: t.start, stage: spanNoStage}
	t.stack = make([]*Span, 1, 8)
	t.stack[0] = t.root
	return t
}

// StartStage begins timing a stage and returns the function that ends it.
// Stage time accumulates, so a stage that runs in several bursts (e.g. the
// per-child source queries of a SHAPE) reports their sum.
func (t *Trace) StartStage(s Stage) func() {
	if t == nil {
		return func() {}
	}
	begin := time.Now()
	return func() { t.stages[s] += time.Since(begin) }
}

// SetKind labels the statement class. If the trace watches a store that
// reports the class as hot, per-operator timing switches on for the rest of
// the statement — SetKind fires during dispatch, before the heavy stages run.
func (t *Trace) SetKind(kind string) {
	if t == nil {
		return
	}
	t.kind = kind
	if !t.detailed && t.store.ShouldDetail(kind) {
		t.detailed = true
	}
}

// SetStore attaches the statement store SetKind consults.
func (t *Trace) SetStore(l *QueryLog) {
	if t != nil {
		t.store = l
	}
}

// SetDetailed requests (or clears) per-operator timing on streamed operator
// spans; see the field comment. EXPLAIN ANALYZE sets it before dispatching
// the wrapped statement.
func (t *Trace) SetDetailed(on bool) {
	if t != nil {
		t.detailed = on
	}
}

// Detailed reports whether per-operator timing was requested. False on nil.
func (t *Trace) Detailed() bool { return t != nil && t.detailed }

// SetErrClass overrides the error classification derived from the error
// value (used to mark parse-stage failures).
func (t *Trace) SetErrClass(class string) {
	if t != nil {
		t.errClass = class
	}
}

// AddRowsIn accumulates source rows consumed.
func (t *Trace) AddRowsIn(n int64) {
	if t != nil {
		t.rowsIn += n
	}
}

// SetRowsOut records result rows produced.
func (t *Trace) SetRowsOut(n int64) {
	if t != nil {
		t.rowsOut = n
	}
}

// SetParallelism records the parallelism bound of one of the statement's
// scans — min(workers, partitions) — not the goroutines that ran, which the
// process-wide bound may hold lower; the statement's parallelism is the
// widest of them.
func (t *Trace) SetParallelism(workers int) {
	if t != nil && workers > t.parallelism {
		t.parallelism = workers
	}
}

// ErrClass returns the explicitly set classification ("" when unset).
func (t *Trace) ErrClass() string {
	if t == nil {
		return ""
	}
	return t.errClass
}

// Finish seals the root span (see SpanTree) and converts the trace into a
// Record carrying it. errClass should be "" for successful statements.
// Finish on a nil trace returns a zero Record.
func (t *Trace) Finish(errClass string) Record {
	if t == nil {
		return Record{}
	}
	root := t.SpanTree(t.rowsOut)
	return Record{
		Start:       t.start,
		Statement:   t.statement,
		Kind:        t.kind,
		Origin:      t.origin,
		ErrClass:    errClass,
		Elapsed:     root.Elapsed,
		Stages:      t.stages,
		RowsIn:      t.rowsIn,
		RowsOut:     t.rowsOut,
		Parallelism: t.parallelism,
		Root:        root,
	}
}

// traceKey is the context key under which a statement's Trace travels.
type traceKey struct{}

// WithTrace returns a context carrying t. Passing a nil trace returns ctx
// unchanged, so uninstrumented executions don't allocate a context.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// FromContext returns the trace carried by ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
