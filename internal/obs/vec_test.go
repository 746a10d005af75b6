package obs

import "testing"

func TestCounterVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_by_class_total", "class")
	v.With("PREDICT").Add(3)
	v.With("SQL").Inc()
	v.With("PREDICT").Inc()
	snap := v.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d labels, want 2", len(snap))
	}
	if snap[0].Label != "PREDICT" || snap[0].Value != 4 {
		t.Fatalf("snap[0] = %+v, want PREDICT=4", snap[0])
	}
	if snap[1].Label != "SQL" || snap[1].Value != 1 {
		t.Fatalf("snap[1] = %+v, want SQL=1", snap[1])
	}
	if v.Name() != "test_by_class_total" || v.Key() != "class" {
		t.Fatalf("name/key = %q/%q", v.Name(), v.Key())
	}
	// Same name resolves to the same vec; the key is fixed at creation.
	if r.CounterVec("test_by_class_total", "other") != v {
		t.Fatal("second CounterVec call returned a different vec")
	}
	if v.Key() != "class" {
		t.Fatalf("key changed to %q", v.Key())
	}
}

func TestCounterVecCardinalityCap(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_capped_total", "label")
	for i := 0; i < DefaultVecMaxLabels+10; i++ {
		v.With(string(rune('a' + i))).Inc()
	}
	snap := v.Snapshot()
	if len(snap) != DefaultVecMaxLabels+1 {
		t.Fatalf("vec grew to %d labels, want cap %d + overflow", len(snap), DefaultVecMaxLabels)
	}
	var overflow int64
	for _, s := range snap {
		if s.Label == OverflowLabel {
			overflow = s.Value
		}
	}
	if overflow != 10 {
		t.Fatalf("overflow bucket = %d, want 10", overflow)
	}
	// The overflow bucket stays reachable even at the cap.
	v.With("zzz").Inc()
	if got := v.With(OverflowLabel).Value(); got != 11 {
		t.Fatalf("overflow after one more = %d, want 11", got)
	}
}

func TestHistogramVec(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("test_latency_us", "class")
	v.With("PREDICT").Observe(100)
	v.With("PREDICT").Observe(200)
	v.With("SQL").Observe(50)
	snap := v.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d labels, want 2", len(snap))
	}
	if snap[0].Label != "PREDICT" || snap[0].Value.Count != 2 || snap[0].Value.Sum != 300 {
		t.Fatalf("PREDICT series = %+v", snap[0])
	}
	if snap[1].Label != "SQL" || snap[1].Value.Count != 1 {
		t.Fatalf("SQL series = %+v", snap[1])
	}
}

func TestNilVecsSafe(t *testing.T) {
	var cv *CounterVec
	cv.With("x").Inc()
	if cv.Snapshot() != nil || cv.Name() != "" || cv.Key() != "" {
		t.Fatal("nil CounterVec misbehaves")
	}
	var hv *HistogramVec
	hv.With("x").Observe(1)
	if hv.Snapshot() != nil || hv.Name() != "" || hv.Key() != "" {
		t.Fatal("nil HistogramVec misbehaves")
	}
	var r *Registry
	if r.CounterVec("a", "b") != nil || r.HistogramVec("a", "b") != nil {
		t.Fatal("nil registry handed out a vec")
	}
	if r.CounterVecs() != nil || r.HistogramVecs() != nil {
		t.Fatal("nil registry listed vecs")
	}
}
