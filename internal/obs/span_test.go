package obs

import (
	"strings"
	"testing"
	"time"
)

func TestSpanTreeStructure(t *testing.T) {
	tr := NewTrace("SELECT 1", "")
	outer := tr.StartSpan("caseset", "src")
	inner := tr.StartSpan("scan", "Customers")
	inner.SetRows(10)
	tr.EndSpan(inner)
	tr.EndSpan(outer)
	sib := tr.StartSpan("predict", "model=M")
	sib.SetRows(4)
	tr.EndSpan(sib)
	tr.SetRowsOut(4)
	tr.SetClass("PREDICT", nil)
	rec := tr.Finish("")

	root := tr.Root()
	if root == nil || root.Kind != "statement" {
		t.Fatalf("root = %+v, want statement span", root)
	}
	if root.Label != "PREDICT" || root.Rows != 4 {
		t.Fatalf("root label/rows = %q/%d, want PREDICT/4", root.Label, root.Rows)
	}
	if root.Elapsed != rec.Elapsed {
		t.Fatalf("root elapsed %v != record elapsed %v", root.Elapsed, rec.Elapsed)
	}
	if len(root.Children) != 2 {
		t.Fatalf("root has %d children, want 2", len(root.Children))
	}
	if root.Children[0].Kind != "caseset" || root.Children[1].Kind != "predict" || root.Children[1].Rows != 4 {
		t.Fatalf("children out of order")
	}
	outerSp := root.Children[0]
	if len(outerSp.Children) != 1 || outerSp.Children[0].Kind != "scan" || outerSp.Children[0].Label != "Customers" {
		t.Fatalf("nesting wrong: outer children %v", outerSp.Children)
	}
	innerSp := outerSp.Children[0]
	if innerSp.Rows != 10 {
		t.Fatalf("inner rows = %d, want 10", innerSp.Rows)
	}
	if outerSp.Elapsed < innerSp.Elapsed {
		t.Fatalf("outer elapsed %v < inner elapsed %v", outerSp.Elapsed, innerSp.Elapsed)
	}
	// The record's tree is the same tree.
	if got := rec.Root.Span(); len(got.Children) != 2 || got.Label != "PREDICT" {
		t.Fatalf("record tree = %+v", got)
	}
}

func TestSpanStageFeedsTraceTimers(t *testing.T) {
	tr := NewTrace("stmt", "")
	sp := tr.StartSpanStage(StageScan, "predict", "")
	time.Sleep(2 * time.Millisecond)
	tr.EndSpan(sp)
	rec := tr.Finish("")
	if elapsed := rec.Root.Span().Children[0].Elapsed; rec.Stages[StageScan] != elapsed {
		t.Fatalf("scan stage %v != span elapsed %v", rec.Stages[StageScan], elapsed)
	}
	if rec.Stages[StageScan] <= 0 {
		t.Fatalf("scan stage not recorded")
	}
}

// TestEndSpanPopsAbandonedChildren: an error path that returns without
// closing inner spans must not corrupt the stack when a deferred EndSpan
// closes the outer span.
func TestEndSpanPopsAbandonedChildren(t *testing.T) {
	tr := NewTrace("stmt", "")
	outer := tr.StartSpan("train", "")
	tr.StartSpan("tokenize", "") // never ended: simulated early error return
	tr.EndSpan(outer)
	next := tr.StartSpan("scan", "")
	next.SetRows(1)
	tr.EndSpan(next)
	root := tr.Root()
	if len(root.Children) != 2 {
		t.Fatalf("root has %d children, want 2 (train, scan)", len(root.Children))
	}
	if root.Children[1].Kind != "scan" || len(root.Children[0].Children) != 1 {
		t.Fatalf("span after defensive pop nested wrongly")
	}
}

func TestSpanWalkPreorder(t *testing.T) {
	root := NewSpan("statement", "SQL")
	sel := NewSpan("select", "")
	sel.Add(NewSpan("scan", "T")).Add(NewSpan("filter", ""))
	root.Add(sel)
	var kinds []string
	var depths []int
	root.Walk(func(sp *Span, depth int) {
		kinds = append(kinds, sp.Kind)
		depths = append(depths, depth)
	})
	if got, want := strings.Join(kinds, ","), "statement,select,scan,filter"; got != want {
		t.Fatalf("walk order %s, want %s", got, want)
	}
	if depths[0] != 0 || depths[1] != 1 || depths[2] != 2 || depths[3] != 2 {
		t.Fatalf("depths = %v", depths)
	}
}

// TestNilTraceSpanZeroAlloc is the acceptance guarantee that uninstrumented
// paths allocate zero spans: the nil-trace StartSpan/EndSpan round trip must
// not allocate.
func TestNilTraceSpanZeroAlloc(t *testing.T) {
	var tr *Trace
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.StartSpan("scan", "T")
		sp.SetRows(1)
		tr.EndSpan(sp)
		sp2 := tr.StartSpanStage(StageScan, "predict", "")
		tr.EndSpan(sp2)
	})
	if allocs != 0 {
		t.Fatalf("nil-trace span round trip allocates %.1f objects, want 0", allocs)
	}
}

// BenchmarkNilTraceSpan documents the uninstrumented cost of a span site: a
// nil check and nothing else (run with -benchmem to see 0 allocs/op).
func BenchmarkNilTraceSpan(b *testing.B) {
	var tr *Trace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.StartSpan("scan", "T")
		tr.EndSpan(sp)
	}
}

func TestRegistryFlightRecorder(t *testing.T) {
	r := NewRegistry()
	if r.QueryLog() == nil {
		t.Fatal("registry has no statement store")
	}
	// Every statement is interesting here, so the retained policy fills to
	// its capacity and no further.
	for i := 0; i < 2*DefaultFlightRecorderCap; i++ {
		stmt(r.QueryLog(), "SQL", "exec", 0)
		stmt(r.QueryLog(), "SQL", "", 0)
	}
	if got := len(r.QueryLog().Retained()); got != DefaultFlightRecorderCap {
		t.Fatalf("store retains %d records, want %d", got, DefaultFlightRecorderCap)
	}
	var nilReg *Registry
	if nilReg.QueryLog() != nil {
		t.Fatal("nil registry returned a statement store")
	}
}

func TestHistSnapshotQuantile(t *testing.T) {
	var h Histogram
	// 100 observations of 10 (bucket [8,15]) and 100 of 1000 (bucket
	// [512,1023]).
	for i := 0; i < 100; i++ {
		h.Observe(10)
		h.Observe(1000)
	}
	s := h.Snapshot()
	if p50 := s.Quantile(0.50); p50 < 8 || p50 > 15 {
		t.Fatalf("p50 = %d, want within [8,15]", p50)
	}
	if p95 := s.Quantile(0.95); p95 < 512 || p95 > 1023 {
		t.Fatalf("p95 = %d, want within [512,1023]", p95)
	}
	if q := s.Quantile(1.0); q < 512 || q > 1023 {
		t.Fatalf("p100 = %d, want within [512,1023]", q)
	}
	if (HistSnapshot{}).Quantile(0.5) != 0 {
		t.Fatal("empty snapshot quantile != 0")
	}
	var zero Histogram
	zero.Observe(0)
	if got := zero.Snapshot().Quantile(0.99); got != 0 {
		t.Fatalf("all-zero histogram p99 = %d, want 0", got)
	}
}

// TestQuantileInterpolatesWithinBucket: with every observation in one bucket,
// the estimate moves monotonically across the bucket's range as q grows.
func TestQuantileInterpolatesWithinBucket(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(600) // bucket [512,1023]
	}
	s := h.Snapshot()
	p10, p90 := s.Quantile(0.10), s.Quantile(0.90)
	if p10 >= p90 {
		t.Fatalf("interpolation not monotone: p10=%d p90=%d", p10, p90)
	}
	if p10 < 512 || p90 > 1023 {
		t.Fatalf("interpolated values escape the bucket: p10=%d p90=%d", p10, p90)
	}
}
