package obs

import (
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// Stage identifies one timed phase of statement execution. The stages mirror
// the provider's pipeline: lex/parse, semantic bind, source assembly (the SQL
// or SHAPE query feeding a mining statement, or a standalone SHAPE), model
// training, and the per-case scan (PREDICTION JOIN evaluation, or plain SQL
// execution for relational statements).
type Stage int

const (
	StageParse Stage = iota
	StageBind
	StageSource
	StageTrain
	StageScan
	// NumStages is the number of stages; Record.Stages is indexed by Stage.
	NumStages
)

var stageNames = [NumStages]string{"parse", "bind", "source", "train", "scan"}

// String returns the stage's lower-case name.
func (s Stage) String() string {
	if s >= 0 && s < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// maxStatementLen bounds the statement text kept in a record so a
// pathological multi-megabyte statement cannot pin memory through the store.
const maxStatementLen = 512

// Record is one completed statement in the statement store.
type Record struct {
	// Seq is the statement's 1-based position in the provider's lifetime
	// statement sequence; it keeps ordering stable across ring wraparound and
	// is the seq clients see in the wire stats trailer.
	Seq int64
	// Start is when execution began.
	Start time.Time
	// Statement is the command text, truncated to maxStatementLen bytes at a
	// UTF-8 rune boundary.
	Statement string
	// Kind labels the statement class (SQL, SHAPE, PREDICT, INSERT, ...).
	Kind string
	// Origin labels where the statement came from (e.g. a remote address for
	// server connections); empty for in-process calls.
	Origin string
	// ErrClass is the error classification ("" on success): parse, semantic,
	// not_found, cancelled, busy, or exec.
	ErrClass string
	// Elapsed is total wall time.
	Elapsed time.Duration
	// Stages holds per-stage wall time, indexed by Stage. Stages that did not
	// run are zero.
	Stages [NumStages]time.Duration
	// RowsIn is the number of source rows consumed (training or scan input).
	RowsIn int64
	// RowsOut is the number of result rows produced.
	RowsOut int64
	// Parallelism is the most goroutines any one of the statement's scans ran
	// on: 1 for a single partition, 0 for a statement that scanned nothing.
	Parallelism int
	// Root is the span tree: the store's immutable copy on a retained
	// record, nil on the recent ring's records.
	Root Tree
	// Reason is why the retained policy kept the statement ("" if it did not).
	Reason KeepReason
	// ThresholdUS is the class p95 (µs) the statement was judged against at
	// completion; 0 while the class was still warming up.
	ThresholdUS int64

	class *Class // resolved by the statement's plan; nil: look it up by Kind
}

// truncateStatement cuts s to at most maxStatementLen bytes, backing off to
// the start of the rune the cut would split.
func truncateStatement(s string) string {
	if len(s) <= maxStatementLen {
		return s
	}
	n := maxStatementLen
	for n > 0 && !utf8.RuneStart(s[n]) {
		n--
	}
	return s[:n]
}

// DefaultQueryLogCap is the number of statements the recent policy keeps.
const DefaultQueryLogCap = 256

// DefaultFlightRecorderCap is the number of statements the retained policy
// keeps, reservoir included. Span trees are the heaviest per-statement
// telemetry the store holds, so the policy stays deliberately small; the
// point of retaining by interest is that a small set is enough.
const DefaultFlightRecorderCap = 128

// reservoirCap is the number of retained slots that sample normal traffic.
const reservoirCap = 8

const (
	// flightMinSamples is how many observations a class needs before its
	// moving p95 is trusted as a slowness threshold.
	flightMinSamples = 32
	// flightDecayLimit bounds a class's histogram mass: when reached, every
	// bucket halves, so the p95 tracks load shifts instead of all history.
	flightDecayLimit = 1024
	// flightMaxClasses caps the per-class tracking map; further classes
	// collapse into OverflowLabel.
	flightMaxClasses = 32
	// flightHotStatements is how many of a class's statements detailed per-op
	// sampling stays armed for after a severe (>= 2x p95) outlier: a count,
	// not a time, so a fast class under load — where scheduler and GC pauses
	// make such outliers routine — is not detailed without end.
	flightHotStatements = 16
	// flightDetailEvery thins detailed sampling while a class is hot: one
	// statement in flightDetailEvery records per-operator detail.
	flightDetailEvery = 4
)

// KeepReason says why the retained policy kept a statement.
type KeepReason string

const (
	KeepError     KeepReason = "error"
	KeepBusy      KeepReason = "busy"
	KeepCancelled KeepReason = "cancelled"
	KeepSlow      KeepReason = "slow"
	KeepSample    KeepReason = "sample"
)

// keepPriority orders the priority slots for eviction: a record evicts the
// lowest-priority, oldest one, never one of higher priority.
func keepPriority(r KeepReason) int {
	if r == KeepBusy {
		return 1
	}
	return 2 // error, cancelled, slow
}

// epoch anchors Mono, and a trace's wall-clock start is epoch plus its
// Mono reading (one clock read where time.Now takes two).
var epoch = time.Now()

// Mono reads the monotonic clock as an offset from a fixed instant, so the
// difference of two readings is the time between them.
func Mono() time.Duration { return time.Since(epoch) }

// Class is one statement class (SQL, PREDICT, ...), resolved once — a plan
// resolves it when it compiles — so a statement reaches its by-class counter
// and histogram and its hot state without a map lookup, and its hot state
// without a lock. It also holds the class's moving latency envelope: a
// decaying log2 histogram for the p95 threshold, guarded by the owning
// store's mu.
type Class struct {
	stmts   *Counter
	latency *Histogram

	seen    int64
	buckets [histBuckets]int64

	// hot counts down the class's statements left in its hot window.
	hot atomic.Int64
}

// shouldDetail reports whether the class's next statement should record
// per-operator detail: true for one in flightDetailEvery of the
// flightHotStatements statements after a >= 2x-p95 outlier, the first
// included.
func (c *Class) shouldDetail() bool {
	if c == nil || c.hot.Load() <= 0 {
		return false
	}
	return c.hot.Add(-1)%flightDetailEvery == flightDetailEvery-1
}

func (ct *Class) observeLocked(us int64) {
	ct.buckets[bucketOf(max(us, 0))]++
	ct.seen++
	if ct.seen >= flightDecayLimit {
		var kept int64
		for i := range ct.buckets {
			ct.buckets[i] /= 2
			kept += ct.buckets[i]
		}
		ct.seen = kept
	}
}

// p95Locked returns the class's current slowness threshold in µs: the upper
// bound of the log2 bucket holding the p95 rank. Using the bucket's upper
// edge (not an interpolated mid-bucket value) means "slow" requires escaping
// the latency regime 95% of traffic lives in — uniform traffic is never
// flagged against itself. Returns 0 while the class has fewer than
// flightMinSamples observations (threshold not yet trusted).
func (ct *Class) p95Locked() int64 {
	if ct.seen < flightMinSamples {
		return 0
	}
	target := (ct.seen*95 + 99) / 100 // ceil(0.95 * seen)
	var cum int64
	for i, n := range ct.buckets {
		cum += n
		if cum >= target {
			return BucketUpperBound(i)
		}
	}
	return BucketUpperBound(histBuckets - 1)
}

// QueryLog is the statement store: it holds each completed statement once,
// written under one lock, and keeps it under two retention policies.
//
// The recent policy is a ring of the last DefaultQueryLogCap statements
// ($SYSTEM.DM_QUERY_LOG). The retained policy ($SYSTEM.DM_FLIGHT_RECORDER,
// /debug/flightrecorder) keeps span trees by interest: errors, busy
// rejections, cancellations and statements slower than their class's moving
// p95 go into priority-evicting slots, and a separate reservoir samples
// normal traffic (Algorithm R) so the retained set also shows what healthy
// looks like. Interesting records evict each other, never the reservoir;
// slots and reservoir together hold DefaultFlightRecorderCap records.
//
// All methods are safe on a nil receiver.
//
//dmlint:guard mu: QueryLog.recent, QueryLog.slots, QueryLog.slotKeys, QueryLog.samples, QueryLog.normalSeen, QueryLog.classes, QueryLog.rng
type QueryLog struct {
	mu         sync.Mutex
	recent     ring[Record]
	slots      []Record // retained: interesting statements
	slotKeys   []int64  // per slot: its record's keepPriority<<48 | Seq
	samples    []Record // retained: the reservoir of normal statements
	normalSeen int64    // normal statements offered to the reservoir
	classes    map[string]*Class
	// rng drives reservoir sampling; seeded deterministically so tests and
	// repeated runs are reproducible. PCG's state is two words, where the
	// classic source's 4.8 KB table cost cache misses on every draw.
	rng *rand.Rand

	considered *Counter
	kept       *CounterVec
	byClass    *CounterVec // statements and latency by class
	latByClass *HistogramVec
}

func newQueryLog(reg *Registry) *QueryLog {
	return &QueryLog{
		recent:     newRing[Record](DefaultQueryLogCap),
		classes:    make(map[string]*Class),
		rng:        rand.New(rand.NewPCG(1, 0)),
		considered: reg.Counter(MetricFlightConsidered),
		kept:       reg.CounterVec(MetricFlightKept, LabelReason),
		byClass:    reg.CounterVec(MetricStatementsByClass, LabelClass),
		latByClass: reg.HistogramVec(MetricLatencyByClass, LabelClass),
	}
}

// Append records one completed statement under both policies, assigning its
// Seq, counts it in its class's by-class families, and returns the Seq. A
// record without a span tree (Root == nil) goes to the recent ring only. The
// tree is the caller's (a trace's reused slab): it is copied, in one
// allocation, only into a record the retained policy keeps, and no record of
// the recent ring carries one. Safe on a nil store (returns 0).
func (l *QueryLog) Append(r Record) int64 {
	if l == nil {
		return 0
	}
	r.Statement = truncateStatement(r.Statement)
	tree := r.Root
	r.Root = nil
	if tree != nil {
		l.considered.Inc()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if r.class == nil {
		r.class = l.classLocked(r.Kind)
	}
	r.class.stmts.Inc()
	r.class.latency.Observe(r.Elapsed.Microseconds())
	r.Seq = l.recent.total + 1
	if tree != nil {
		if slot := l.retainLocked(&r); slot != nil {
			*slot = r
			slot.Root = slices.Clone(tree)
			l.kept.With(string(r.Reason)).Inc()
		}
	}
	l.recent.push(r)
	return r.Seq
}

// retainLocked judges r against its class's moving p95, sets r.ThresholdUS,
// and returns the retained slot r goes to with r.Reason set — or nil when
// the retained policy drops it.
func (l *QueryLog) retainLocked(r *Record) *Record {
	us, ct := r.Elapsed.Microseconds(), r.class
	// Record-then-decide: the threshold is the envelope of *prior* traffic,
	// then this statement's latency joins the envelope for the next one.
	r.ThresholdUS = ct.p95Locked()
	ct.observeLocked(us)

	var reason KeepReason
	switch {
	case r.ErrClass == "busy":
		reason = KeepBusy
	case r.ErrClass == "cancelled":
		reason = KeepCancelled
	case r.ErrClass != "":
		reason = KeepError
	case r.ThresholdUS > 0 && us >= r.ThresholdUS:
		reason = KeepSlow
		if us >= 2*r.ThresholdUS {
			ct.hot.Store(flightHotStatements)
		}
	default:
		reason = KeepSample
	}
	var slot *Record
	if reason == KeepSample {
		slot = l.sampleLocked()
	} else {
		slot = l.slotLocked(keepPriority(reason), r.Seq)
	}
	if slot != nil {
		r.Reason = reason
	}
	return slot
}

// sampleLocked is one step of Algorithm R over normal statements: the first
// reservoirCap fill the reservoir, and the n-th after them replaces a random
// sample with probability reservoirCap/n.
func (l *QueryLog) sampleLocked() *Record {
	l.normalSeen++
	if len(l.samples) < reservoirCap {
		l.samples = append(l.samples, Record{})
		return &l.samples[len(l.samples)-1]
	}
	if j := l.rng.Int64N(l.normalSeen); j < reservoirCap {
		return &l.samples[j]
	}
	return nil
}

// slotLocked returns the priority slot for a record of priority prio and
// sequence seq: a free one, else the slot of the lowest-priority, oldest
// record — or nil when that record outranks prio. The victim is found in
// slotKeys, one word per slot, so the records themselves are not read.
func (l *QueryLog) slotLocked(prio int, seq int64) *Record {
	key := int64(prio)<<48 | seq
	if len(l.slots) < DefaultFlightRecorderCap-reservoirCap {
		l.slots, l.slotKeys = append(l.slots, Record{}), append(l.slotKeys, key)
		return &l.slots[len(l.slots)-1]
	}
	vi := 0
	for i, k := range l.slotKeys {
		if k < l.slotKeys[vi] {
			vi = i
		}
	}
	if int(l.slotKeys[vi]>>48) > prio {
		return nil
	}
	l.slotKeys[vi] = key
	return &l.slots[vi]
}

// Class returns the statement class kind, creating it on first use; past
// flightMaxClasses classes, new kinds share the OverflowLabel class. Nil on a
// nil store.
func (l *QueryLog) Class(kind string) *Class {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.classLocked(kind)
}

func (l *QueryLog) classLocked(kind string) *Class {
	label := kind
	if kind == "" {
		kind, label = OverflowLabel, "unknown"
	}
	ct := l.classes[kind]
	if ct == nil {
		if len(l.classes) >= flightMaxClasses && kind != OverflowLabel {
			return l.classLocked(OverflowLabel)
		}
		ct = &Class{
			stmts:   l.byClass.With(label),
			latency: l.latByClass.With(label),
		}
		l.classes[kind] = ct
	}
	return ct
}

// Total returns the lifetime number of appended records.
func (l *QueryLog) Total() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recent.total
}

// Find returns the record with the given seq, if the recent ring still
// holds it. Seq is a ring position (Append assigns them densely), so the
// lookup is O(1).
func (l *QueryLog) Find(seq int64) (Record, bool) {
	if l == nil {
		return Record{}, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recent.at(seq - 1)
}

// Snapshot returns the recent ring's records, oldest first.
func (l *QueryLog) Snapshot() []Record {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recent.snapshot()
}

// Retained returns the records the retained policy holds, by ascending Seq.
func (l *QueryLog) Retained() []Record {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := append(append([]Record(nil), l.slots...), l.samples...)
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// FindRetained returns the retained record with the given seq, if any.
func (l *QueryLog) FindRetained(seq int64) (Record, bool) {
	for _, r := range l.Retained() {
		if r.Seq == seq {
			return r, true
		}
	}
	return Record{}, false
}
