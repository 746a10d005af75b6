// Package obs is the provider's observability substrate: monotonic counters,
// gauges, log-scaled latency histograms and their labelled families, a
// statement store, a metrics history, and a per-connection tracker. It exists
// so the provider can apply the paper's own core move — "a provider describes
// information about itself to potential consumers" through schema rowsets —
// to its runtime state: everything collected here is surfaced as the
// $SYSTEM.DM_QUERY_LOG, DM_FLIGHT_RECORDER, DM_PROVIDER_METRICS,
// DM_METRICS_HISTORY and DM_CONNECTIONS rowsets and is therefore queryable
// with plain SELECT statements.
//
// The statement store (QueryLog) records each completed statement once and
// keeps it under two retention policies: the recent statements, and the ones
// retained by interest (errors, slow outliers, a sample of normal traffic)
// together with their span trees.
//
// The package is allocation-light by design: counters and histogram buckets
// are atomics, hot-path handles are resolved once and cached by the caller,
// and every method is nil-receiver safe so an uninstrumented provider pays a
// single pointer test per call site.
package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. All methods are safe for
// concurrent use and safe on a nil receiver (no-ops), so callers can hold a
// Counter handle unconditionally and skip the "is observability on?" branch.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a level that can go up and down — queue depths, in-flight
// statement counts. Like Counter, every method is safe for concurrent use
// and a no-op on a nil receiver, so an uninstrumented provider pays one
// pointer test per call site.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by delta (negative deltas decrease it).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Inc increments the gauge by one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec decrements the gauge by one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current level (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of log-scaled histogram buckets. Bucket i counts
// observations whose value has bit length i: bucket 0 holds v == 0, bucket i
// holds v in [2^(i-1), 2^i). 40 buckets cover microsecond latencies up to
// ~2^39 µs (≈ 6 days), far beyond any statement we serve.
const histBuckets = 40

// Histogram is a log2-bucketed histogram of non-negative int64 observations
// (the provider observes microseconds). Buckets double in width, so the full
// latency range fits in a fixed, allocation-free array of atomics.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

// bucketOf returns the log2 bucket of a non-negative value: its bit length,
// clamped to the last bucket.
func bucketOf(v int64) int { return min(bits.Len64(uint64(v)), histBuckets-1) }

// BucketUpperBound returns the inclusive upper bound of bucket i (0 for
// bucket 0; 2^i - 1 otherwise).
func BucketUpperBound(i int) int64 {
	if i <= 0 {
		return 0
	}
	return int64(1)<<uint(i) - 1
}

// HistBucket is one non-empty histogram bucket in a snapshot.
type HistBucket struct {
	// UpperBound is the inclusive upper bound of the bucket's value range.
	UpperBound int64
	// Count is the number of observations that fell in the bucket.
	Count int64
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Count   int64
	Sum     int64
	Buckets []HistBucket // non-empty buckets, ascending by bound
}

// Snapshot copies the histogram's current state. Buckets with zero count are
// omitted. A nil histogram snapshots as empty.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := 0; i < histBuckets; i++ {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, HistBucket{UpperBound: BucketUpperBound(i), Count: n})
		}
	}
	return s
}

// Quantile estimates the q-th quantile (0 < q <= 1) of the observed values
// from the log2 buckets, interpolating linearly within the bucket that holds
// the target rank. Bucket i spans [2^(i-1), 2^i - 1] (bucket 0 holds only 0),
// so the estimate is exact for bucket 0 and off by at most half the bucket
// width elsewhere — plenty for p50/p95/p99 health readouts. Returns 0 for an
// empty snapshot.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 || len(s.Buckets) == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := 0.0
	for _, b := range s.Buckets {
		prev := cum
		cum += float64(b.Count)
		if cum < rank {
			continue
		}
		lo := (b.UpperBound + 1) / 2 // bucket lower bound: 2^(i-1), or 0
		frac := (rank - prev) / float64(b.Count)
		return lo + int64(frac*float64(b.UpperBound-lo))
	}
	return s.Buckets[len(s.Buckets)-1].UpperBound
}

// Registry is the root of one provider instance's observability state: named
// counters, gauges, histograms and labelled families, the statement store,
// the metrics history, and the connection tracker. The name tables are
// locked; the metric values themselves are atomics, so the lock is touched
// only when a handle is first resolved — callers cache handles and the hot
// path never sees it.
//
// Registry methods are safe on a nil receiver: a nil registry hands out nil
// handles, whose methods are no-ops, which is how observability is disabled
// wholesale.
//
//dmlint:guard mu: names.m, ConnTracker.conns, ConnTracker.seq
type Registry struct {
	mu          sync.RWMutex
	counters    names[Counter]
	gauges      names[Gauge]
	hists       names[Histogram]
	counterVecs names[CounterVec]
	histVecs    names[HistogramVec]

	log     *QueryLog
	history *History
	conns   *ConnTracker
}

// NewRegistry creates a registry: its statement store keeps the last
// DefaultQueryLogCap statements and DefaultFlightRecorderCap span trees, and
// its metrics history keeps DefaultHistoryCap snapshots.
func NewRegistry() *Registry {
	r := &Registry{history: &History{snaps: newRing[HistorySnapshot](DefaultHistoryCap)}, conns: &ConnTracker{}}
	r.log = newQueryLog(r)
	// Pre-register the history counter so the very first snapshot already
	// carries it (at zero) and successive snapshots show its delta.
	r.Counter(MetricHistorySnapshots)
	return r
}

// names is one of the registry's name tables; the registry's mu guards m.
type names[M any] struct{ m map[string]*M }

// get returns the metric called name, creating it with mk on first use.
func (t *names[M]) get(mu *sync.RWMutex, name string, mk func() *M) *M {
	mu.RLock()
	v := t.m[name]
	mu.RUnlock()
	if v != nil {
		return v
	}
	mu.Lock()
	defer mu.Unlock()
	if v = t.m[name]; v == nil {
		if t.m == nil {
			t.m = make(map[string]*M)
		}
		v = mk()
		t.m[name] = v
	}
	return v
}

// list renders every entry of t through f, sorted by name.
func list[M, S any](mu *sync.RWMutex, t *names[M], f func(name string, m *M) S) []S {
	mu.RLock()
	defer mu.RUnlock()
	keys := make([]string, 0, len(t.m))
	for k := range t.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]S, len(keys))
	for i, k := range keys {
		out[i] = f(k, t.m[k])
	}
	return out
}

func zero[M any]() *M { return new(M) }

// Counter returns the named counter, creating it on first use. Returns nil
// (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return r.counters.get(&r.mu, name, zero[Counter])
}

// Histogram returns the named histogram, creating it on first use. Returns
// nil (a no-op histogram) on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return r.hists.get(&r.mu, name, zero[Histogram])
}

// Gauge returns the named gauge, creating it on first use. Returns nil (a
// no-op gauge) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return r.gauges.get(&r.mu, name, zero[Gauge])
}

// CounterVec returns the named counter family keyed by the given label key,
// creating it on first use. The key is fixed at creation; later calls with a
// different key return the existing family unchanged. Returns nil (a no-op
// family) on a nil registry.
func (r *Registry) CounterVec(name, key string) *CounterVec {
	if r == nil {
		return nil
	}
	return r.counterVecs.get(&r.mu, name, func() *CounterVec { return &CounterVec{name: name, key: key} })
}

// HistogramVec returns the named histogram family keyed by the given label
// key, creating it on first use. Returns nil (a no-op family) on a nil
// registry.
func (r *Registry) HistogramVec(name, key string) *HistogramVec {
	if r == nil {
		return nil
	}
	return r.histVecs.get(&r.mu, name, func() *HistogramVec { return &HistogramVec{name: name, key: key} })
}

// QueryLog returns the registry's statement store (nil on a nil registry).
func (r *Registry) QueryLog() *QueryLog {
	if r == nil {
		return nil
	}
	return r.log
}

// Connections returns the registry's connection tracker (nil on a nil
// registry).
func (r *Registry) Connections() *ConnTracker {
	if r == nil {
		return nil
	}
	return r.conns
}

// NamedCounter pairs a counter or gauge name with its current value.
type NamedCounter struct {
	Name  string
	Value int64
}

// NamedGauge pairs a gauge name with its current level.
type NamedGauge = NamedCounter

// NamedHistogram pairs a histogram name with its snapshot.
type NamedHistogram struct {
	Name string
	Snap HistSnapshot
}

// Counters returns a sorted snapshot of every registered counter.
func (r *Registry) Counters() []NamedCounter {
	if r == nil {
		return nil
	}
	return list(&r.mu, &r.counters, func(name string, c *Counter) NamedCounter { return NamedCounter{name, c.Value()} })
}

// Gauges returns a sorted snapshot of every registered gauge.
func (r *Registry) Gauges() []NamedGauge {
	if r == nil {
		return nil
	}
	return list(&r.mu, &r.gauges, func(name string, g *Gauge) NamedGauge { return NamedGauge{name, g.Value()} })
}

// Histograms returns a sorted snapshot of every registered histogram.
func (r *Registry) Histograms() []NamedHistogram {
	if r == nil {
		return nil
	}
	return list(&r.mu, &r.hists, func(name string, h *Histogram) NamedHistogram { return NamedHistogram{name, h.Snapshot()} })
}

// CounterVecs returns every registered counter family, sorted by name.
func (r *Registry) CounterVecs() []*CounterVec {
	if r == nil {
		return nil
	}
	return list(&r.mu, &r.counterVecs, func(_ string, v *CounterVec) *CounterVec { return v })
}

// HistogramVecs returns every registered histogram family, sorted by name.
func (r *Registry) HistogramVecs() []*HistogramVec {
	if r == nil {
		return nil
	}
	return list(&r.mu, &r.histVecs, func(_ string, v *HistogramVec) *HistogramVec { return v })
}
