package main

import (
	"sync"
	"time"
)

// span is one timed call recorded by the benchmark's own tracer. Spans wrap
// calls made from this package into the program's layers; nothing inside the
// program is instrumented. Op ties together every span of one operation and
// Parent names the span that caused this one (0 for a root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the untraced phases run.
type recorder struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

// start opens a span and returns its ID (0 from a nil recorder).
func (r *recorder) start(name, layer string, op, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Workload: r.workload, Op: op, StartNs: now})
	return id
}

// end closes the span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil || id == 0 {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.EndNs = now
	return time.Duration(s.EndNs - s.StartNs)
}

// selfTimeByLayer attributes to each layer the time its spans spent outside
// their child spans, over the span trees whose root span is named root: a
// span's self time is its duration minus the part of that interval its
// children cover. Children of one parent never overlap here (each client
// runs its statements one after another), so covered time is the plain sum.
func (r *recorder) selfTimeByLayer(root string) map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	covered := make([]int64, len(r.spans)+1)
	inTree := make([]bool, len(r.spans)+1)
	for _, s := range r.spans { // a parent always precedes its children
		covered[s.Parent] += s.EndNs - s.StartNs
		inTree[s.ID] = s.Parent == 0 && s.Name == root || inTree[s.Parent]
	}
	out := make(map[string]time.Duration)
	for _, s := range r.spans {
		if inTree[s.ID] {
			out[s.Layer] += time.Duration(s.EndNs - s.StartNs - covered[s.ID])
		}
	}
	return out
}
