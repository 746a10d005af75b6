package obs

import (
	"strconv"
	"time"
)

// Span is one node of a statement's hierarchical execution trace as readers
// see it: an operator (scan, filter, join, group-by, sort, project, shape,
// append, caseset, predict, train, ...) with its wall time, rows emitted, and
// child operators. A running statement keeps its spans in its Trace's slab
// (see Tree); a Span tree is rendered from the slab only when somebody reads
// it — EXPLAIN ANALYZE, $SYSTEM.DM_FLIGHT_RECORDER, /debug/flightrecorder —
// and bare EXPLAIN builds one directly (NewSpan) for a plan that never ran.
type Span struct {
	// Kind is the operator kind (lower-case, stable: "scan", "filter", ...).
	Kind string
	// Label carries operator detail: a table name for scans, the APPEND name
	// for shape children, "model=... morsels=N workers=W" for a partitioned
	// prediction.
	Label string
	// Elapsed is the operator's wall time (always zero in plan-only trees).
	Elapsed time.Duration
	// Rows is the number of rows the operator emitted.
	Rows int64
	// Children are sub-operators in execution order.
	Children []*Span
}

// NewSpan builds a detached span with no timing, for plan-only trees (bare
// EXPLAIN renders the operators a statement would run without running them).
func NewSpan(kind, label string) *Span {
	return &Span{Kind: kind, Label: label}
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

// SetLabel replaces the span's label. Safe on nil.
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

// Label is a span label kept as its parts, so a statement nobody reads pays
// no formatting; String renders the text readers see:
//
//	Text Arg[ index=Index][ est=Est][ morsels=Morsels workers=Workers][ batches=Batches]
//
// with the fan-out only when Morsels > 1 and the batch count only when
// Batches > 0, neither led by a space when everything before it is empty.
type Label struct {
	Text, Arg string // static text and what follows it verbatim: "model=", a model name
	Index     string // a pushed index column
	Est       int64  // the cardinality estimate, when HasEst
	HasEst    bool
	Morsels   int32 // partitions of the operator's input, and the worker bound
	Workers   int32
	Batches   int64 // batches the operator emitted
}

// String renders the label. A label of static text only costs nothing.
func (l Label) String() string {
	if l.Arg == "" && l.Index == "" && !l.HasEst && l.Morsels <= 1 && l.Batches <= 0 {
		return l.Text
	}
	b := make([]byte, 0, 64)
	b = append(append(b, l.Text...), l.Arg...)
	if l.Index != "" {
		b = append(append(b, " index="...), l.Index...)
	}
	if l.HasEst {
		b = strconv.AppendInt(append(b, " est="...), l.Est, 10)
	}
	if l.Morsels > 1 {
		if len(b) > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(append(b, "morsels="...), int64(l.Morsels), 10)
		b = strconv.AppendInt(append(b, " workers="...), int64(l.Workers), 10)
	}
	if l.Batches > 0 {
		if len(b) > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(append(b, "batches="...), l.Batches, 10)
	}
	return string(b)
}

// node is one span in a trace's slab; start and elapsed are offsets on the
// trace's monotonic clock.
type node struct {
	kind           string
	label          Label
	start, elapsed time.Duration
	rows           int64
	parent         int32
	// stage is the Trace stage the span's elapsed time accumulates into;
	// spanNoStage when the span is not stage-attributed.
	stage Stage
}

// Tree is a statement's span tree as a flat slab. A span opens under the
// innermost open one, so the slab is in preorder and parent indices rebuild
// the hierarchy; element 0 is the "statement" root. A Record's Tree is the
// statement store's own immutable copy.
type Tree []node

// Span renders the tree — labels become text here — into its read form.
// Returns nil for an empty tree.
func (tr Tree) Span() *Span {
	if len(tr) == 0 {
		return nil
	}
	spans := make([]Span, len(tr))
	for i := range tr {
		n := &tr[i]
		spans[i] = Span{Kind: n.kind, Label: n.label.String(), Elapsed: n.elapsed, Rows: n.rows}
		if i > 0 {
			p := &spans[n.parent]
			p.Children = append(p.Children, &spans[i])
		}
	}
	return &spans[0]
}

// spanNoStage marks a span that does not feed a Trace stage timer.
const spanNoStage Stage = -1

// SpanRef is a handle on one span of a running statement: its trace and its
// index in the trace's slab. The zero SpanRef — what an untraced statement
// gets — ignores every call. Like the trace, it belongs to the statement's
// goroutine.
type SpanRef struct {
	t *Trace
	i int32
}

func (sp SpanRef) node() *node {
	if sp.t == nil {
		return nil
	}
	return &sp.t.nodes[sp.i]
}

// SetRows records the operator's output row count.
func (sp SpanRef) SetRows(n int64) {
	if nd := sp.node(); nd != nil {
		nd.rows = n
	}
}

// SetLabel replaces the span's label parts.
func (sp SpanRef) SetLabel(l Label) {
	if nd := sp.node(); nd != nil {
		nd.label = l
	}
}

// SetCounts records what a streamed operator's cursors counted: its rows,
// its batches (rendered into the label), and — when timed — its elapsed time.
func (sp SpanRef) SetCounts(rows, batches int64, elapsed time.Duration, timed bool) {
	if nd := sp.node(); nd != nil {
		nd.rows, nd.label.Batches = rows, batches
		if timed {
			nd.elapsed = elapsed
		}
	}
}

// StartSpan opens a child span under the current innermost open span and
// makes it current; EndSpan closes it. On a nil trace it returns the zero
// SpanRef, so uninstrumented paths pay one pointer test per operator.
func (t *Trace) StartSpan(kind, label string) SpanRef {
	return t.StartSpanStage(spanNoStage, kind, label)
}

// StartSpanStage is StartSpan for a stage-attributed operator: when the span
// ends, its elapsed time also accumulates into the trace's flat stage timer,
// keeping the query log's per-stage breakdown and the span tree consistent.
func (t *Trace) StartSpanStage(stage Stage, kind, label string) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	sp := t.AddSpan(kind, Label{Text: label})
	t.nodes[sp.i].start, t.nodes[sp.i].stage = t.now(), stage
	t.stack = append(t.stack, sp.i)
	return sp
}

// AddSpan adds a closed, untimed span under the current innermost open span
// and reads no clock: a plan-time operator whose counts its cursors report
// later (SetCounts).
func (t *Trace) AddSpan(kind string, label Label) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	t.nodes = append(t.nodes, node{kind: kind, label: label, parent: t.stack[len(t.stack)-1], stage: spanNoStage})
	return SpanRef{t, int32(len(t.nodes) - 1)}
}

// EndSpan closes sp, recording its elapsed time (and feeding the attributed
// stage timer, if any). Spans left open below sp — an error path that
// returned early — are popped with it, so a deferred EndSpan on an outer span
// keeps the stack consistent. Safe on nil trace or zero span.
func (t *Trace) EndSpan(sp SpanRef) {
	if t == nil || sp.t != t {
		return
	}
	n := &t.nodes[sp.i]
	n.elapsed = t.now() - n.start
	if n.stage >= 0 && n.stage < NumStages {
		t.stages[n.stage] += n.elapsed
	}
	for i := len(t.stack) - 1; i > 0; i-- {
		if t.stack[i] == sp.i {
			t.stack = t.stack[:i]
			return
		}
	}
}

// Root renders the trace's span tree as it stands, or nil on a nil trace.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.nodes.Span()
}

// SpanTree closes the root span against the current clock and renders the
// tree: EXPLAIN ANALYZE reads it after the inner statement ran but before
// Finish seals the trace. rowsOut records the statement's result rows on the
// root. Safe on nil (returns nil).
func (t *Trace) SpanTree(rowsOut int64) *Span {
	if t == nil {
		return nil
	}
	t.closeRoot(rowsOut)
	return t.nodes.Span()
}

func (t *Trace) closeRoot(rowsOut int64) {
	root := &t.nodes[0]
	root.elapsed, root.rows, root.label = t.now(), rowsOut, Label{Text: t.kind}
}
