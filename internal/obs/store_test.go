package obs

import (
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

// stmt appends one finished statement of the given class, error class and
// latency to l and returns its seq.
func stmt(l *QueryLog, kind, errClass string, elapsed time.Duration) int64 {
	return l.Append(Record{
		Start:     time.Unix(1, 0),
		Statement: "stmt",
		Kind:      kind,
		ErrClass:  errClass,
		Elapsed:   elapsed,
		Root:      make(Tree, 1),
	})
}

func TestRecorderKeepsFailures(t *testing.T) {
	l := NewRegistry().QueryLog()
	stmt(l, "PREDICT", "exec", time.Millisecond)
	stmt(l, "PREDICT", "busy", time.Millisecond)
	stmt(l, "PREDICT", "cancelled", time.Millisecond)
	snap := l.Retained()
	if len(snap) != 3 {
		t.Fatalf("store retains %d records, want 3", len(snap))
	}
	want := map[int64]KeepReason{1: KeepError, 2: KeepBusy, 3: KeepCancelled}
	for _, r := range snap {
		if r.Reason != want[r.Seq] {
			t.Fatalf("seq %d kept as %q, want %q", r.Seq, r.Reason, want[r.Seq])
		}
	}
}

func TestRecorderKeepsSlowOverMovingP95(t *testing.T) {
	l := NewRegistry().QueryLog()
	// Warm the PREDICT class well past flightMinSamples with ~1ms statements.
	for i := 0; i < 2*flightMinSamples; i++ {
		stmt(l, "PREDICT", "", time.Millisecond)
	}
	// A 100ms outlier must be kept as slow, with the threshold it beat.
	seq := stmt(l, "PREDICT", "", 100*time.Millisecond)
	got, ok := l.FindRetained(seq)
	if !ok {
		t.Fatalf("slow statement seq %d not retained", seq)
	}
	if got.Reason != KeepSlow {
		t.Fatalf("kept as %q, want %q", got.Reason, KeepSlow)
	}
	if got.ThresholdUS <= 0 || got.ThresholdUS > 100_000 {
		t.Fatalf("threshold = %dus, want in (0, 100000]", got.ThresholdUS)
	}
	// The 2x-p95 outlier armed detailed sampling for the class.
	detailed := false
	for i := 0; i < 2*flightDetailEvery; i++ {
		if l.Class("PREDICT").shouldDetail() {
			detailed = true
		}
	}
	if !detailed {
		t.Fatal("hot class never asked for detail")
	}
	if l.Class("SQL").shouldDetail() {
		t.Fatal("cold class asked for detail")
	}
}

// TestRecorderTailRetention is the core tail-based guarantee a FIFO ring
// lacks: one interesting statement survives hundreds of later fast
// statements.
func TestRecorderTailRetention(t *testing.T) {
	l := NewRegistry().QueryLog()
	stmt(l, "PREDICT", "exec", time.Millisecond)
	for i := 2; i <= 600; i++ {
		stmt(l, "PREDICT", "", time.Millisecond)
	}
	got, ok := l.FindRetained(1)
	if !ok {
		t.Fatal("error record evicted by fast normal traffic")
	}
	if got.Reason != KeepError {
		t.Fatalf("reason = %q, want error", got.Reason)
	}
	// Normal traffic is still represented by a bounded reservoir.
	var samples int
	for _, r := range l.Retained() {
		if r.Reason == KeepSample {
			samples++
		}
	}
	if samples == 0 || samples > reservoirCap {
		t.Fatalf("reservoir holds %d samples, want 1..%d", samples, reservoirCap)
	}
}

// TestRecorderEvictionPriorities: a normal statement never displaces an
// interesting one, a new error evicts the oldest same-priority record, and
// busy records rank below errors.
func TestRecorderEvictionPriorities(t *testing.T) {
	const slots = DefaultFlightRecorderCap - reservoirCap
	l := NewRegistry().QueryLog()
	for i := 0; i < slots; i++ {
		stmt(l, "SQL", "exec", time.Millisecond)
	}
	// Full of errors: a normal statement goes to the reservoir and displaces
	// none of them.
	sample := stmt(l, "SQL", "", time.Millisecond)
	if r, ok := l.FindRetained(sample); !ok || r.Reason != KeepSample {
		t.Fatalf("normal statement not sampled: %+v %v", r, ok)
	}
	for seq := int64(1); seq <= slots; seq++ {
		if _, ok := l.FindRetained(seq); !ok {
			t.Fatalf("sample evicted error record %d", seq)
		}
	}
	// A new error evicts the oldest error.
	seq := stmt(l, "SQL", "exec", time.Millisecond)
	if _, ok := l.FindRetained(1); ok {
		t.Fatal("oldest error survived same-priority eviction")
	}
	if _, ok := l.FindRetained(seq); !ok {
		t.Fatal("new error not retained")
	}
	// Busy records rank below errors: fill a fresh store with busy, then
	// errors push them all out and a later busy record displaces none.
	l2 := NewRegistry().QueryLog()
	for i := 0; i < slots; i++ {
		stmt(l2, "SQL", "busy", time.Millisecond)
	}
	for i := 0; i < slots; i++ {
		stmt(l2, "SQL", "exec", time.Millisecond)
	}
	stmt(l2, "SQL", "busy", time.Millisecond)
	snap := l2.Retained()
	if len(snap) != slots {
		t.Fatalf("store retains %d records, want %d", len(snap), slots)
	}
	for _, r := range snap {
		if r.Reason != KeepError || r.Seq <= slots {
			t.Fatalf("retained %+v, want only the errors %d..%d", r, slots+1, 2*slots)
		}
	}
}

// TestRecorderReservoirSurvivesInterestingFlood: with more than
// DefaultFlightRecorderCap failed statements interleaved with normal ones, the normal statements still hold the reservoir — interesting records
// never evict it — and kept{sample} counts exactly the reservoir writes.
func TestRecorderReservoirSurvivesInterestingFlood(t *testing.T) {
	r := NewRegistry()
	l := r.QueryLog()
	writes := int64(0) // normal statements found retained right after Append
	for i := 0; i < 2*DefaultFlightRecorderCap; i++ {
		stmt(l, "SQL", []string{"exec", "cancelled"}[i%2], time.Millisecond)
		if _, ok := l.FindRetained(stmt(l, "SQL", "", time.Millisecond)); ok {
			writes++
		}
	}
	var samples, interesting int
	for _, rec := range l.Retained() {
		if rec.Reason == KeepSample {
			samples++
		} else {
			interesting++
		}
	}
	if samples < 1 || samples > reservoirCap {
		t.Fatalf("retained %d samples, want 1..%d", samples, reservoirCap)
	}
	if interesting != DefaultFlightRecorderCap-reservoirCap {
		t.Fatalf("retained %d interesting records, want %d", interesting, DefaultFlightRecorderCap-reservoirCap)
	}
	kept := map[string]int64{}
	for _, s := range r.CounterVec(MetricFlightKept, LabelReason).Snapshot() {
		kept[s.Label] = s.Value
	}
	if kept["sample"] != writes {
		t.Fatalf("kept{sample} = %d, want the %d reservoir writes", kept["sample"], writes)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var l *QueryLog
	if l.Append(Record{Root: make(Tree, 1)}) != 0 {
		t.Fatal("nil store assigned a seq")
	}
	if l.Retained() != nil || l.Snapshot() != nil || l.Total() != 0 || l.Class("SQL").shouldDetail() {
		t.Fatal("nil store misbehaves")
	}
	if _, ok := l.FindRetained(1); ok {
		t.Fatal("nil store found a record")
	}
	// A record without a span tree is logged, not retained.
	real := NewRegistry().QueryLog()
	real.Append(Record{ErrClass: "exec"})
	if len(real.Retained()) != 0 || len(real.Snapshot()) != 1 {
		t.Fatal("nil-root record retained")
	}
}

func TestRecorderKeptCounters(t *testing.T) {
	r := NewRegistry()
	stmt(r.QueryLog(), "SQL", "exec", time.Millisecond)
	stmt(r.QueryLog(), "SQL", "", time.Millisecond)
	if got := r.Counter(MetricFlightConsidered).Value(); got != 2 {
		t.Fatalf("considered = %d, want 2", got)
	}
	kept := map[string]int64{}
	for _, s := range r.CounterVec(MetricFlightKept, LabelReason).Snapshot() {
		kept[s.Label] = s.Value
	}
	if kept["error"] != 1 || kept["sample"] != 1 {
		t.Fatalf("kept counters = %v", kept)
	}
}

// TestStatementTruncatedAtRuneBoundary: a statement whose cut point falls
// inside a multi-byte rune is cut before that rune, so the stored text stays
// valid UTF-8 in both policies.
func TestStatementTruncatedAtRuneBoundary(t *testing.T) {
	text := "SELECT '" + strings.Repeat("x", maxStatementLen-1-len("SELECT '")) + "é' AS s"
	if len(text) != 519 || !strings.HasPrefix(text[maxStatementLen-1:], "é") {
		t.Fatalf("fixture: %d bytes, byte %d = %q", len(text), maxStatementLen-1, text[maxStatementLen-1])
	}
	l := NewRegistry().QueryLog()
	seq := l.Append(Record{Statement: text, ErrClass: "exec", Root: make(Tree, 1)})
	recent, _ := l.Find(seq)
	retained, _ := l.FindRetained(seq)
	for _, got := range []string{recent.Statement, retained.Statement} {
		if got != text[:maxStatementLen-1] || !utf8.ValidString(got) {
			t.Fatalf("stored %d bytes ending %q, want the %d bytes before the é", len(got), got[len(got)-3:], maxStatementLen-1)
		}
	}
}
