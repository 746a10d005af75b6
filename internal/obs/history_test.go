package obs

import (
	"testing"
	"time"
)

func TestHistoryRingWraps(t *testing.T) {
	h := newRing[HistorySnapshot](3)
	for i := 1; i <= 5; i++ {
		h.push(HistorySnapshot{TS: time.Unix(int64(i), 0)})
	}
	snap := h.snapshot()
	if len(snap) != 3 {
		t.Fatalf("ring holds %d snapshots, want 3", len(snap))
	}
	for i, want := range []int64{3, 4, 5} {
		if snap[i].TS.Unix() != want {
			t.Fatalf("snap[%d].TS = %d, want %d (oldest first)", i, snap[i].TS.Unix(), want)
		}
	}
	var nilH *History
	nilH.Append(HistorySnapshot{})
	if nilH.Snapshot() != nil {
		t.Fatal("nil History misbehaves")
	}
}

func TestRecordHistoryFlattensRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total").Add(7)
	r.Gauge("test_gauge").Set(3)
	r.Histogram("test_us").Observe(100)
	r.CounterVec("test_by_class_total", LabelClass).With("PREDICT").Add(2)
	r.HistogramVec("test_lat_by_class_us", LabelClass).With("SQL").Observe(40)

	now := time.Unix(1000, 0)
	s := r.RecordHistory(now)
	if !s.TS.Equal(now) {
		t.Fatalf("TS = %v, want %v", s.TS, now)
	}
	points := map[string]int64{}
	for _, p := range s.Points {
		points[p.Name+"|"+p.Label] = p.Value
	}
	for key, want := range map[string]int64{
		"test_total|":                    7,
		"test_gauge|":                    3,
		"test_us_count|":                 1,
		"test_us_sum|":                   100,
		"test_by_class_total|PREDICT":    2,
		"test_lat_by_class_us_count|SQL": 1,
		"test_lat_by_class_us_sum|SQL":   40,
		MetricHistorySnapshots + "|":     0, // counted before this snapshot's increment
		MetricFlightConsidered + "|":     0,
	} {
		got, ok := points[key]
		if !ok {
			t.Fatalf("snapshot missing point %q (have %v)", key, points)
		}
		if got != want {
			t.Fatalf("point %q = %d, want %d", key, got, want)
		}
	}
	if got := len(r.History().Snapshot()); got != 1 {
		t.Fatalf("history holds %d snapshots, want 1", got)
	}
	if r.Counter(MetricHistorySnapshots).Value() != 1 {
		t.Fatal("snapshot counter not incremented")
	}

	// Nil registry: everything no-ops.
	var nilReg *Registry
	if nilReg.History() != nil {
		t.Fatal("nil registry returned a history")
	}
	if got := nilReg.RecordHistory(now); len(got.Points) != 0 {
		t.Fatal("nil registry recorded points")
	}
}

func TestStartHistoryTicker(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total").Inc()
	stop := r.StartHistoryTicker(5 * time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for len(r.History().Snapshot()) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("ticker took no snapshots within 2s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop()
	stop() // idempotent
	n := len(r.History().Snapshot())
	time.Sleep(25 * time.Millisecond)
	if got := len(r.History().Snapshot()); got > n+1 {
		t.Fatalf("ticker kept running after stop: %d -> %d snapshots", n, got)
	}
	// Nil registry returns a callable stop.
	var nilReg *Registry
	nilReg.StartHistoryTicker(time.Millisecond)()
}
