package obs

import (
	"sort"
	"sync"
)

// Dimensional metrics: a family is a set of counters or histograms keyed by
// exactly one label. Cardinality is bounded — once a family holds
// DefaultVecMaxLabels distinct children, further labels collapse into the
// OverflowLabel bucket — so a client sending adversarial origins or model
// names cannot grow server memory or the /metrics payload without bound.

// OverflowLabel is the bucket that absorbs label values beyond a family's
// cardinality cap.
const OverflowLabel = "__other__"

// DefaultVecMaxLabels is the per-family cap on distinct label values.
const DefaultVecMaxLabels = 16

// metric is what a family needs of its children: a usable zero value (M)
// whose pointer reads out a snapshot value of type V.
type metric[M, V any] interface {
	*M
	value() V
}

func (c *Counter) value() int64          { return c.Value() }
func (h *Histogram) value() HistSnapshot { return h.Snapshot() }

// family is a set of metrics keyed by one label. All methods are safe on a
// nil receiver.
type family[M, V any, P metric[M, V]] struct {
	name string
	key  string

	mu       sync.RWMutex
	children map[string]*M
}

// CounterVec is a family of counters keyed by one label.
type CounterVec = family[Counter, int64, *Counter]

// HistogramVec is a family of histograms keyed by one label.
type HistogramVec = family[Histogram, HistSnapshot, *Histogram]

// Name returns the family's metric name ("" on nil).
func (v *family[M, V, P]) Name() string {
	if v == nil {
		return ""
	}
	return v.name
}

// Key returns the family's label key ("" on nil).
func (v *family[M, V, P]) Key() string {
	if v == nil {
		return ""
	}
	return v.key
}

// With returns the child for label, creating it if the cardinality cap
// allows and otherwise returning the OverflowLabel bucket. Nil-safe: a nil
// family returns a nil child, whose methods are themselves nil-safe.
func (v *family[M, V, P]) With(label string) *M {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	c := v.children[label]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.children) >= DefaultVecMaxLabels && v.children[label] == nil {
		label = OverflowLabel
	}
	if c = v.children[label]; c == nil {
		if v.children == nil {
			v.children = make(map[string]*M)
		}
		c = new(M)
		v.children[label] = c
	}
	return c
}

// VecSample is one child of a family snapshot: its label and its value.
type VecSample[V any] struct {
	Label string
	Value V
}

// Snapshot returns the family's children sorted by label. Nil-safe.
func (v *family[M, V, P]) Snapshot() []VecSample[V] {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	out := make([]VecSample[V], 0, len(v.children))
	for label, c := range v.children {
		out = append(out, VecSample[V]{Label: label, Value: P(c).value()})
	}
	v.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}
