package obs

import (
	"context"
	"sync"
	"time"
)

// Trace accumulates one statement's timings while it executes; when the
// statement finishes the provider turns it into a query-log Record. A Trace
// is owned by the goroutine executing the statement — partition workers never
// touch it (the statement's goroutine records the fan-out before they fork and
// their row counts after they join) — so its fields need no synchronization.
//
// Besides the flat per-stage timers, a trace grows a hierarchical span tree
// in a flat slab (see Tree): StartSpan/EndSpan push and pop operator spans
// under a root "statement" span, and stage-attributed spans feed the flat
// timers on close. Traces, their slabs and their context nodes are reused
// from a free list (NewTrace, Release), so a statement nobody reads allocates
// nothing for observability.
//
// All methods are safe on a nil receiver: an uninstrumented provider passes
// nil traces through the same code paths at the cost of a pointer test.
type Trace struct {
	ctx         traceCtx
	begin       time.Duration // Mono at the start; span and stage times are offsets from it
	statement   string
	origin      string
	kind        string
	class       *Class
	errClass    string
	stages      [NumStages]time.Duration
	rowsIn      int64
	rowsOut     int64
	parallelism int

	// nodes is the span slab (nodes[0] is the root); stack holds the indices
	// of the open spans, innermost last (stack[0] is always the root).
	nodes Tree
	stack []int32

	// detailed requests per-operator timing from streaming executors. The
	// streaming pipeline interleaves all operators in one drain loop, so
	// attributing wall time to individual operators costs two clock reads per
	// batch per operator; EXPLAIN ANALYZE asks for that explicitly, and the
	// statement store turns it on automatically while a statement class is
	// running hot (see SetClass).
	detailed bool
}

// tracePool is the free list of traces; a Session may run statements on
// several goroutines at once, so it is process-wide.
var tracePool = sync.Pool{New: func() any { return new(Trace) }}

// maxPooledSpans bounds the slab a released trace keeps, so one huge
// statement does not pin its tree's capacity in the free list.
const maxPooledSpans = 256

// NewTrace starts a trace for one statement, reusing a released one.
func NewTrace(statement, origin string) *Trace {
	t := tracePool.Get().(*Trace)
	t.begin, t.statement, t.origin = Mono(), statement, origin
	t.nodes = append(t.nodes[:0], node{kind: "statement", stage: spanNoStage})
	t.stack = append(t.stack[:0], 0)
	return t
}

// Release returns t to the free list once its statement is recorded. Nothing
// taken from t — a SpanRef, a context WithTrace made, the Root of the Record
// Finish returned — may be used afterwards. Safe on nil.
func (t *Trace) Release() {
	if t == nil || cap(t.nodes) > maxPooledSpans {
		return
	}
	// The slab's spans keep their kind and label strings, plan-owned and
	// small, until the next statement overwrites them.
	*t = Trace{nodes: t.nodes[:0], stack: t.stack[:0]}
	tracePool.Put(t)
}

// now reads the clock as an offset from the trace's start.
func (t *Trace) now() time.Duration { return Mono() - t.begin }

// StageTimer times one running stage on the trace's monotonic clock. It is a
// value: starting, switching and stopping stages allocates nothing.
type StageTimer struct {
	t     *Trace
	s     Stage
	begin time.Duration
}

// StartStage begins timing a stage. Stage time accumulates, so a stage that
// runs in several bursts (e.g. the per-child source queries of a SHAPE)
// reports their sum.
func (t *Trace) StartStage(s Stage) StageTimer {
	if t == nil {
		return StageTimer{}
	}
	return StageTimer{t, s, t.now()}
}

// Next ends the stage and starts s on the same clock reading, so adjacent
// stages leave no gap between them. With s the running stage, it goes on.
func (st StageTimer) Next(s Stage) StageTimer {
	if st.t == nil || st.s == s {
		return st
	}
	now := st.t.now()
	st.t.stages[st.s] += now - st.begin
	return StageTimer{st.t, s, now}
}

// Stop ends the stage.
func (st StageTimer) Stop() {
	if st.t != nil {
		st.t.stages[st.s] += st.t.now() - st.begin
	}
}

// Trace returns the trace the timer runs on (nil for the zero timer).
func (st StageTimer) Trace() *Trace { return st.t }

// SetClass labels the statement class, with the class resolved in the
// statement store in advance (a plan resolves it when it compiles) or nil
// for the store to resolve by kind when it records the statement. If a
// resolved class is running hot, per-operator timing switches on for the
// rest of the statement — the class is set during dispatch, before the
// heavy stages run.
func (t *Trace) SetClass(kind string, c *Class) {
	if t == nil {
		return
	}
	t.kind, t.class = kind, c
	if !t.detailed && c.shouldDetail() {
		t.detailed = true
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

// Finish seals the root span and converts the trace into a Record whose Root
// is the trace's own slab: the statement store copies it out only if it
// keeps the record, and the slab goes back to the free list with the trace
// (Release). errClass should be "" for successful statements. Finish on a
// nil trace returns a zero Record.
func (t *Trace) Finish(errClass string) Record {
	if t == nil {
		return Record{}
	}
	t.closeRoot(t.rowsOut)
	return Record{
		Start:       epoch.Add(t.begin),
		Statement:   t.statement,
		Kind:        t.kind,
		Origin:      t.origin,
		ErrClass:    errClass,
		Elapsed:     t.nodes[0].elapsed,
		Stages:      t.stages,
		RowsIn:      t.rowsIn,
		RowsOut:     t.rowsOut,
		Parallelism: t.parallelism,
		Root:        t.nodes,
		class:       t.class,
	}
}

// traceKey is the context key under which a statement's Trace travels.
type traceKey struct{}

// traceCtx is the context node that carries a trace: it lives inside the
// Trace, so carrying one allocates nothing.
type traceCtx struct {
	context.Context
	t *Trace
}

func (c *traceCtx) Value(key any) any {
	if key == (traceKey{}) {
		return c.t
	}
	return c.Context.Value(key)
}

// WithTrace returns a context carrying t. Passing a nil trace returns ctx
// unchanged. The first context made for a trace is its own embedded node;
// any further one is allocated.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	if t.ctx.Context == nil {
		t.ctx = traceCtx{ctx, t}
		return &t.ctx
	}
	return &traceCtx{ctx, t}
}

// FromContext returns the trace carried by ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
