package obs

import (
	"sync"
	"time"
)

// Metrics history: a bounded ring of periodic whole-registry snapshots so
// rates and deltas are computable from SQL ($SYSTEM.DM_METRICS_HISTORY)
// without an external scraper. A background ticker (see StartHistoryTicker)
// calls RecordHistory every interval; each snapshot flattens every counter,
// gauge, vec child, and histogram count/sum into (name, label, value) points.

// DefaultHistoryCap is the number of snapshots the history ring retains.
// At the default 5s interval that is ten minutes of lookback.
const DefaultHistoryCap = 120

// DefaultHistoryInterval is the snapshot period used when a server enables
// history without an explicit interval.
const DefaultHistoryInterval = 5 * time.Second

// HistoryPoint is one flattened metric sample inside a snapshot. Label is ""
// for scalar metrics; for vec children it is the child's label value; for
// histograms the Name carries a _count/_sum suffix.
type HistoryPoint struct {
	Name  string
	Label string
	Value int64
}

// HistorySnapshot is the full registry state at one instant, points sorted
// by (Name, Label).
type HistorySnapshot struct {
	TS     time.Time
	Points []HistoryPoint
}

// History is the registry's bounded ring of snapshots.
//
//dmlint:guard mu: History.snaps
type History struct {
	mu    sync.Mutex
	snaps ring[HistorySnapshot]
}

// Append stores one snapshot, evicting the oldest when full. Nil-safe.
func (h *History) Append(s HistorySnapshot) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.snaps.push(s)
}

// Snapshot returns retained snapshots oldest-first. Nil-safe.
func (h *History) Snapshot() []HistorySnapshot {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.snaps.snapshot()
}

// History returns the registry's snapshot ring (nil on a nil registry).
func (r *Registry) History() *History {
	if r == nil {
		return nil
	}
	return r.history
}

// RecordHistory takes one snapshot of every registered metric and appends it
// to the history ring, returning the snapshot. Scalar counters and gauges
// become single points; vec children become one point per label; histograms
// (scalar and vec) contribute <name>_count and <name>_sum points so rates of
// both volume and total time are derivable. Nil-safe.
func (r *Registry) RecordHistory(now time.Time) HistorySnapshot {
	if r == nil {
		return HistorySnapshot{}
	}
	s := HistorySnapshot{TS: now}
	for _, c := range r.Counters() {
		s.Points = append(s.Points, HistoryPoint{Name: c.Name, Value: c.Value})
	}
	for _, g := range r.Gauges() {
		s.Points = append(s.Points, HistoryPoint{Name: g.Name, Value: g.Value})
	}
	for _, h := range r.Histograms() {
		s.Points = append(s.Points,
			HistoryPoint{Name: h.Name + "_count", Value: h.Snap.Count},
			HistoryPoint{Name: h.Name + "_sum", Value: h.Snap.Sum})
	}
	for _, v := range r.CounterVecs() {
		for _, child := range v.Snapshot() {
			s.Points = append(s.Points, HistoryPoint{Name: v.Name(), Label: child.Label, Value: child.Value})
		}
	}
	for _, v := range r.HistogramVecs() {
		for _, child := range v.Snapshot() {
			s.Points = append(s.Points,
				HistoryPoint{Name: v.Name() + "_count", Label: child.Label, Value: child.Value.Count},
				HistoryPoint{Name: v.Name() + "_sum", Label: child.Label, Value: child.Value.Sum})
		}
	}
	// Counters()/Gauges()/Histograms()/*Vecs() each return name-sorted slices
	// and vec snapshots are label-sorted, so Points is grouped and ordered
	// without a second sort.
	r.history.Append(s)
	r.Counter(MetricHistorySnapshots).Inc()
	return s
}

// StartHistoryTicker snapshots the registry every interval
// (DefaultHistoryInterval when interval <= 0) on a background goroutine
// until the returned stop function is called. stop is idempotent and safe
// to call concurrently. On a nil registry the ticker is a no-op.
func (r *Registry) StartHistoryTicker(interval time.Duration) (stop func()) {
	if r == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = DefaultHistoryInterval
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case now := <-t.C:
				r.RecordHistory(now)
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}
