package obs

import (
	"time"
)

// Span is one node of a statement's hierarchical execution trace: an operator
// (scan, filter, join, group-by, sort, project, shape, append, caseset,
// predict, train, ...) with its wall time, rows emitted, and child operators.
// The flat per-stage timers of a Trace are fed from the same spans (see
// Trace.StartSpanStage), so the query log's stage breakdown and the span tree
// cannot disagree.
//
// Ownership rule: a span tree belongs to the goroutine executing the
// statement. Partition workers never touch spans — an operator's span is
// opened and closed before the workers fork, with the fan-out in its label,
// and its row counts are copied on after they join — so spans need no
// synchronization while they are being built. Once the statement finishes
// the tree is immutable and may be read freely (the statement store keeps it
// on the statement's Record, and EXPLAIN ANALYZE reads it).
type Span struct {
	// Kind is the operator kind (lower-case, stable: "scan", "filter", ...).
	Kind string
	// Label carries operator detail: a table name for scans, the APPEND name
	// for shape children, "model=... morsels=N workers=W" for a partitioned
	// prediction.
	Label string
	// Elapsed is the operator's wall time; zero until the span ends (and
	// always zero in plan-only trees built for bare EXPLAIN).
	Elapsed time.Duration
	// Rows is the number of rows the operator emitted.
	Rows int64
	// Children are sub-operators in execution order.
	Children []*Span

	start time.Time
	// stage is the Trace stage this span's elapsed time accumulates into;
	// spanNoStage when the span is not stage-attributed.
	stage Stage
}

// spanNoStage marks a span that does not feed a Trace stage timer.
const spanNoStage Stage = -1

// NewSpan builds a detached span with no timing, for plan-only trees (bare
// EXPLAIN renders the operators a statement would run without running them).
func NewSpan(kind, label string) *Span {
	return &Span{Kind: kind, Label: label, stage: spanNoStage}
}

// Add appends child to s and returns s for chaining. Safe on nil (returns
// nil) so plan builders can compose optional nodes without branching.
func (s *Span) Add(child *Span) *Span {
	if s == nil || child == nil {
		return s
	}
	s.Children = append(s.Children, child)
	return s
}

// SetRows records the operator's output row count. Safe on nil.
func (s *Span) SetRows(n int64) {
	if s != nil {
		s.Rows = n
	}
}

// SetLabel replaces the span's label (used when detail — e.g. the worker
// count — is only known after the span opened). Safe on nil.
func (s *Span) SetLabel(label string) {
	if s != nil {
		s.Label = label
	}
}

// Walk visits the tree in depth-first preorder, calling fn with each span and
// its depth (0 for s itself). Safe on nil.
func (s *Span) Walk(fn func(sp *Span, depth int)) {
	s.walk(fn, 0)
}

func (s *Span) walk(fn func(sp *Span, depth int), depth int) {
	if s == nil {
		return
	}
	fn(s, depth)
	for _, c := range s.Children {
		c.walk(fn, depth+1)
	}
}

// StartSpan opens a child span under the current innermost open span and
// makes it current; EndSpan closes it. On a nil trace it returns nil without
// allocating, so uninstrumented paths pay one pointer test per operator.
func (t *Trace) StartSpan(kind, label string) *Span {
	if t == nil {
		return nil
	}
	return t.pushSpan(kind, label, spanNoStage)
}

// StartSpanStage is StartSpan for a stage-attributed operator: when the span
// ends, its elapsed time also accumulates into the trace's flat stage timer,
// keeping the query log's per-stage breakdown and the span tree consistent.
func (t *Trace) StartSpanStage(stage Stage, kind, label string) *Span {
	if t == nil {
		return nil
	}
	return t.pushSpan(kind, label, stage)
}

func (t *Trace) pushSpan(kind, label string, stage Stage) *Span {
	sp := &Span{Kind: kind, Label: label, start: time.Now(), stage: stage}
	parent := t.stack[len(t.stack)-1]
	parent.Children = append(parent.Children, sp)
	t.stack = append(t.stack, sp)
	return sp
}

// EndSpan closes sp, recording its elapsed time (and feeding the attributed
// stage timer, if any). Spans left open below sp — an error path that
// returned early — are popped with it, so a deferred EndSpan on an outer span
// keeps the stack consistent. Safe on nil trace or nil span.
func (t *Trace) EndSpan(sp *Span) {
	if t == nil || sp == nil {
		return
	}
	sp.Elapsed = time.Since(sp.start)
	if sp.stage >= 0 && sp.stage < NumStages {
		t.stages[sp.stage] += sp.Elapsed
	}
	for i := len(t.stack) - 1; i > 0; i-- {
		if t.stack[i] == sp {
			t.stack = t.stack[:i]
			return
		}
	}
}

// Root returns the trace's root span ("statement"), or nil on a nil trace.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// SpanTree closes the root span against the current clock and returns it:
// EXPLAIN ANALYZE reads the tree after the inner statement ran but before
// Finish seals the trace. rowsOut records the statement's result rows on the
// root. Safe on nil (returns nil).
func (t *Trace) SpanTree(rowsOut int64) *Span {
	if t == nil {
		return nil
	}
	t.root.Elapsed = time.Since(t.start)
	t.root.Rows = rowsOut
	t.root.Label = t.kind
	return t.root
}
