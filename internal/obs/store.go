package obs

import (
	"math/rand"
	"sort"
	"sync"
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
	// Root is the completed, immutable span tree.
	Root *Span
	// Reason is why the retained policy kept the statement ("" if it did not).
	Reason KeepReason
	// ThresholdUS is the class p95 (µs) the statement was judged against at
	// completion; 0 while the class was still warming up.
	ThresholdUS int64
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
	// flightHotWindow is how long detailed per-op sampling stays armed for a
	// class after a severe (>= 2x p95) outlier.
	flightHotWindow = 2 * time.Second
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

// classTrack is the store's per-statement-class moving latency envelope: a
// decaying log2 histogram for the p95 threshold plus the hot-window state
// that arms detailed sampling. Guarded by the owning store's mu.
type classTrack struct {
	seen       int64
	buckets    [histBuckets]int64
	hotUntil   time.Time
	detailTick int64
}

func (ct *classTrack) observeLocked(us int64) {
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
func (ct *classTrack) p95Locked() int64 {
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
//dmlint:guard mu: QueryLog.recent, QueryLog.slots, QueryLog.samples, QueryLog.normalSeen, QueryLog.classes, QueryLog.rng
type QueryLog struct {
	mu         sync.Mutex
	recent     ring[Record]
	slots      []Record // retained: interesting statements
	samples    []Record // retained: the reservoir of normal statements
	normalSeen int64    // normal statements offered to the reservoir
	classes    map[string]*classTrack
	// rng drives reservoir sampling; seeded deterministically so tests and
	// repeated runs are reproducible.
	rng *rand.Rand

	considered *Counter
	kept       *CounterVec
}

func newQueryLog(considered *Counter, kept *CounterVec) *QueryLog {
	return &QueryLog{
		recent:     newRing[Record](DefaultQueryLogCap),
		classes:    make(map[string]*classTrack),
		rng:        rand.New(rand.NewSource(1)),
		considered: considered,
		kept:       kept,
	}
}

// Append records one completed statement under both policies, assigning its
// Seq, and returns that Seq. A record without a span tree (Root == nil) goes
// to the recent ring only. Safe on a nil store (returns 0).
func (l *QueryLog) Append(r Record) int64 {
	if l == nil {
		return 0
	}
	r.Statement = truncateStatement(r.Statement)
	if r.Root != nil {
		l.considered.Inc()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	r.Seq = l.recent.total + 1
	if r.Root != nil {
		if slot := l.retainLocked(&r); slot != nil {
			*slot = r
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
	us := r.Elapsed.Microseconds()
	ct := l.classLocked(r.Kind)
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
			ct.hotUntil = time.Now().Add(flightHotWindow)
		}
	default:
		reason = KeepSample
	}
	var slot *Record
	if reason == KeepSample {
		slot = l.sampleLocked()
	} else {
		slot = l.slotLocked(keepPriority(reason))
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
	if j := l.rng.Int63n(l.normalSeen); j < reservoirCap {
		return &l.samples[j]
	}
	return nil
}

// slotLocked returns the priority slot for a record of priority prio: a free
// one, else the slot of the lowest-priority, oldest record — or nil when
// that record outranks prio. Entries are compared in place, none copied.
func (l *QueryLog) slotLocked(prio int) *Record {
	if len(l.slots) < DefaultFlightRecorderCap-reservoirCap {
		l.slots = append(l.slots, Record{})
		return &l.slots[len(l.slots)-1]
	}
	vi, vp := 0, keepPriority(l.slots[0].Reason)
	for i := 1; i < len(l.slots); i++ {
		if p := keepPriority(l.slots[i].Reason); p < vp || (p == vp && l.slots[i].Seq < l.slots[vi].Seq) {
			vi, vp = i, p
		}
	}
	if vp > prio {
		return nil
	}
	return &l.slots[vi]
}

func (l *QueryLog) classLocked(kind string) *classTrack {
	if kind == "" {
		kind = OverflowLabel
	}
	ct := l.classes[kind]
	if ct == nil {
		if len(l.classes) >= flightMaxClasses && kind != OverflowLabel {
			return l.classLocked(OverflowLabel)
		}
		ct = &classTrack{}
		l.classes[kind] = ct
	}
	return ct
}

// ShouldDetail reports whether a statement of the given class should record
// detailed per-operator timing: true (thinned to one in flightDetailEvery)
// while the class is hot — i.e. within flightHotWindow of a >= 2x-p95
// outlier. False on a nil store.
func (l *QueryLog) ShouldDetail(class string) bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if class == "" {
		class = OverflowLabel
	}
	ct := l.classes[class]
	if ct == nil || time.Now().After(ct.hotUntil) {
		return false
	}
	ct.detailTick++
	return ct.detailTick%flightDetailEvery == 1
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
