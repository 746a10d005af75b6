package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("Value = %d, want 5", c.Value())
	}
	if r.Counter("x") != c {
		t.Error("same name must resolve to the same counter")
	}
	if r.Counter("y") == c {
		t.Error("different names must resolve to different counters")
	}
}

func TestNilSafety(t *testing.T) {
	// Every handle chained off a nil registry must be a usable no-op.
	var r *Registry
	r.Counter("c").Inc()
	r.Histogram("h").Observe(7)
	if r.Counter("c").Value() != 0 {
		t.Error("nil counter must read 0")
	}
	if s := r.Histogram("h").Snapshot(); s.Count != 0 {
		t.Error("nil histogram must snapshot empty")
	}
	if seq := r.QueryLog().Append(Record{}); seq != 0 {
		t.Errorf("nil log Append = %d, want 0", seq)
	}
	if r.QueryLog().Snapshot() != nil || r.QueryLog().Total() != 0 {
		t.Error("nil log must be empty")
	}
	cs := r.Connections().Open("addr")
	cs.Request(true)
	r.Connections().Close(cs)
	if r.Connections().Snapshot() != nil {
		t.Error("nil tracker must snapshot nil")
	}
	if r.Counters() != nil || r.Histograms() != nil {
		t.Error("nil registry must list no metrics")
	}

	var tr *Trace
	tr.StartStage(StageScan).Next(StageParse).Stop()
	tr.SetClass("SQL", nil)
	tr.AddRowsIn(1)
	tr.SetRowsOut(1)
	tr.SetParallelism(2)
	tr.SetErrClass("x")
	if tr.ErrClass() != "" {
		t.Error("nil trace ErrClass must be empty")
	}
	if rec := tr.Finish(""); rec.Seq != 0 || rec.Elapsed != 0 {
		t.Errorf("nil trace Finish = %+v, want zero Record", rec)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	// v == 0 → bucket 0 (bound 0); v in [2^(i-1), 2^i) → bucket i.
	cases := []struct {
		v     int64
		bound int64
	}{
		{0, 0},
		{1, 1},
		{2, 3},
		{3, 3},
		{4, 7},
		{1000, 1023},
		{-5, 0}, // negatives clamp to zero
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	s := h.Snapshot()
	if s.Count != int64(len(cases)) {
		t.Errorf("Count = %d, want %d", s.Count, len(cases))
	}
	if s.Sum != 0+1+2+3+4+1000+0 {
		t.Errorf("Sum = %d", s.Sum)
	}
	got := map[int64]int64{}
	for _, b := range s.Buckets {
		got[b.UpperBound] = b.Count
	}
	want := map[int64]int64{0: 2, 1: 1, 3: 2, 7: 1, 1023: 1}
	for bound, n := range want {
		if got[bound] != n {
			t.Errorf("bucket ≤%d count = %d, want %d (buckets %v)", bound, got[bound], n, s.Buckets)
		}
	}
	// Bounds come back ascending.
	for i := 1; i < len(s.Buckets); i++ {
		if s.Buckets[i].UpperBound <= s.Buckets[i-1].UpperBound {
			t.Errorf("bucket bounds not ascending: %v", s.Buckets)
		}
	}
}

func TestHistogramOverflowClampsToLastBucket(t *testing.T) {
	var h Histogram
	h.Observe(1 << 62)
	s := h.Snapshot()
	if len(s.Buckets) != 1 {
		t.Fatalf("buckets = %v", s.Buckets)
	}
	if s.Buckets[0].UpperBound != BucketUpperBound(histBuckets-1) {
		t.Errorf("overflow bound = %d, want %d", s.Buckets[0].UpperBound, BucketUpperBound(histBuckets-1))
	}
}

func TestQueryLogRingWraparound(t *testing.T) {
	l := newRing[Record](4)
	for i := 1; i <= 10; i++ {
		l.push(Record{Seq: int64(i), Statement: fmt.Sprintf("q%d", i)})
	}
	if l.total != 10 {
		t.Errorf("total = %d", l.total)
	}
	recs := l.snapshot()
	if len(recs) != 4 {
		t.Fatalf("snapshot = %d records", len(recs))
	}
	// Oldest first: q7..q10 with seq 7..10.
	for i, r := range recs {
		if r.Seq != int64(7+i) || r.Statement != fmt.Sprintf("q%d", 7+i) {
			t.Errorf("record %d = seq %d %q", i, r.Seq, r.Statement)
		}
	}
	// Only the last four pushes are still addressable.
	for i, want := range map[int64]bool{-1: false, 0: false, 5: false, 6: true, 9: true, 10: false} {
		if r, ok := l.at(i); ok != want || (ok && r.Seq != i+1) {
			t.Errorf("at(%d) = seq %d, %v; want held=%v", i, r.Seq, ok, want)
		}
	}
}

func TestQueryLogTruncatesStatement(t *testing.T) {
	l := NewRegistry().QueryLog()
	l.Append(Record{Statement: strings.Repeat("x", maxStatementLen+100)})
	if got := len(l.Snapshot()[0].Statement); got != maxStatementLen {
		t.Errorf("stored statement length = %d, want %d", got, maxStatementLen)
	}
}

func TestQueryLogDefaultCap(t *testing.T) {
	l := NewRegistry().QueryLog()
	for i := 0; i <= DefaultQueryLogCap; i++ {
		l.Append(Record{})
	}
	if got := len(l.Snapshot()); got != DefaultQueryLogCap {
		t.Errorf("recent policy keeps %d records, want DefaultQueryLogCap", got)
	}
	if _, ok := l.Find(1); ok {
		t.Error("the oldest record outlived DefaultQueryLogCap later ones")
	}
}

func TestTraceStagesAndContext(t *testing.T) {
	tr := NewTrace("SELECT 1", "test")
	stop := tr.StartStage(StageScan)
	time.Sleep(time.Millisecond)
	stop.Stop()
	// Accumulation: a second burst adds to the same stage.
	stop = tr.StartStage(StageScan)
	time.Sleep(time.Millisecond)
	stop.Stop()
	tr.SetClass("SQL", nil)
	tr.AddRowsIn(3)
	tr.AddRowsIn(2)
	tr.SetRowsOut(4)
	tr.SetParallelism(8)

	ctx := WithTrace(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("trace must round-trip through the context")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("background context must carry no trace")
	}
	if WithTrace(context.Background(), nil) != context.Background() {
		t.Error("nil trace must not wrap the context")
	}

	rec := tr.Finish("")
	if rec.Kind != "SQL" || rec.Origin != "test" || rec.Statement != "SELECT 1" {
		t.Errorf("record = %+v", rec)
	}
	if rec.RowsIn != 5 || rec.RowsOut != 4 || rec.Parallelism != 8 {
		t.Errorf("rows/parallelism = %d %d %d", rec.RowsIn, rec.RowsOut, rec.Parallelism)
	}
	if rec.Stages[StageScan] < 2*time.Millisecond {
		t.Errorf("scan stage = %v, want >= 2ms", rec.Stages[StageScan])
	}
	if rec.Elapsed < rec.Stages[StageScan] {
		t.Errorf("Elapsed %v < scan stage %v", rec.Elapsed, rec.Stages[StageScan])
	}
}

func TestStageString(t *testing.T) {
	want := map[Stage]string{
		StageParse: "parse", StageBind: "bind", StageSource: "source",
		StageTrain: "train", StageScan: "scan", NumStages: "unknown",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("Stage(%d).String() = %q, want %q", s, s.String(), name)
		}
	}
}

func TestConnTracker(t *testing.T) {
	var ct ConnTracker
	a := ct.Open("1.1.1.1:1")
	b := ct.Open("2.2.2.2:2")
	a.Request(false)
	a.Request(true)
	snap := ct.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("connections = %d", len(snap))
	}
	// Snapshot is ordered by connection ID.
	if snap[0].Remote != "1.1.1.1:1" || snap[1].Remote != "2.2.2.2:2" {
		t.Errorf("snapshot = %+v", snap)
	}
	if snap[0].Requests != 2 || snap[0].Errors != 1 {
		t.Errorf("requests/errors = %d/%d", snap[0].Requests, snap[0].Errors)
	}
	ct.Close(a)
	if remaining := ct.Snapshot(); len(remaining) != 1 || remaining[0].Remote != "2.2.2.2:2" {
		t.Errorf("after close: %+v", remaining)
	}
	ct.Close(b)
	if len(ct.Snapshot()) != 0 {
		t.Error("tracker must be empty after closing all connections")
	}
}

// TestConcurrentRegistryAccess exercises handle resolution, observation, and
// snapshotting from many goroutines; run under -race this validates the
// locking scheme the dmlint guard annotation documents.
func TestConcurrentRegistryAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("shared").Inc()
				r.Counter(fmt.Sprintf("c%d", g%3)).Add(2)
				r.Histogram("lat").Observe(int64(i))
				r.QueryLog().Append(Record{Statement: "q"})
				cs := r.Connections().Open("x")
				cs.Request(false)
				r.Connections().Close(cs)
				if i%50 == 0 {
					r.Counters()
					r.Histograms()
					r.QueryLog().Snapshot()
					r.Connections().Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8*200 {
		t.Errorf("shared counter = %d, want %d", got, 8*200)
	}
	if got := r.QueryLog().Total(); got != 8*200 {
		t.Errorf("query log total = %d, want %d", got, 8*200)
	}
	if got := r.Histogram("lat").Snapshot().Count; got != 8*200 {
		t.Errorf("histogram count = %d, want %d", got, 8*200)
	}
}
