package provider

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestConcurrentSessionsWithHistoryAndRecorder drives several sessions at
// once while the metrics-history ticker snapshots the registry and every
// finished statement passes through the flight recorder — with concurrent
// readers rendering $SYSTEM.DM_FLIGHT_RECORDER and DM_METRICS_HISTORY in the
// middle of it. Run under -race this pins the locking of the history ring,
// the recorder's class trackers, and the vec children maps.
func TestConcurrentSessionsWithHistoryAndRecorder(t *testing.T) {
	p := MustNew()
	mustExec(t, p, "CREATE TABLE Nums (ID LONG, N DOUBLE)")
	var ins []string
	for i := 1; i <= 20; i++ {
		ins = append(ins, fmt.Sprintf("(%d, %d)", i, i*i))
	}
	mustExec(t, p, "INSERT INTO Nums VALUES "+joinStrs(ins))

	// An aggressive ticker so several snapshots land inside the test window.
	stop := p.Obs().StartHistoryTicker(time.Millisecond)
	defer stop()

	ctx := context.Background()
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := p.NewSession(WithSessionOrigin(fmt.Sprintf("race-%d", w)))
			defer sess.Close()
			for i := 0; i < 25; i++ {
				if _, err := sess.Execute(ctx, "SELECT N FROM Nums WHERE ID = 7"); err != nil {
					errc <- err
					return
				}
				// Mix in failures so the recorder's always-keep path runs
				// concurrently with the reservoir path.
				if i%8 == 3 {
					if _, err := sess.Execute(ctx, "THIS IS NOT SQL"); err == nil {
						errc <- fmt.Errorf("garbage statement succeeded")
						return
					}
				}
			}
		}(w)
	}
	// The readers run ten rounds and on until the ticker has recorded a
	// snapshot, so the two overlap however the goroutines are scheduled.
	deadline := time.Now().Add(10 * time.Second)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10 || p.Obs().History().Snapshot() == nil; i++ {
				if time.Now().After(deadline) {
					errc <- fmt.Errorf("history ticker recorded no snapshot in 10s of reads")
					return
				}
				for _, stmt := range []string{
					"SELECT * FROM $SYSTEM.DM_FLIGHT_RECORDER",
					"SELECT * FROM $SYSTEM.DM_METRICS_HISTORY",
					"SELECT * FROM $SYSTEM.DM_PROVIDER_METRICS",
				} {
					if _, err := p.Execute(stmt); err != nil {
						errc <- fmt.Errorf("%s: %w", stmt, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// The ticker fired while the readers ran, and every error statement must
	// have been retained.
	if p.Obs().History().Snapshot() == nil {
		t.Error("history ticker recorded no snapshots")
	}
	errs := 0
	for _, rec := range p.Obs().QueryLog().Retained() {
		if rec.Reason == obs.KeepError {
			errs++
		}
	}
	if errs == 0 {
		t.Error("flight recorder retained no error statements")
	}
}

// TestSeqRetrievableAfterBurst pins the tail-retention acceptance property:
// a statement kept for cause (here, an error) stays retrievable by its SEQ
// after far more than a ring's worth of faster, unremarkable statements run
// behind it.
func TestSeqRetrievableAfterBurst(t *testing.T) {
	p := MustNew()
	mustExec(t, p, "CREATE TABLE T (ID LONG)")
	mustExec(t, p, "INSERT INTO T VALUES (1)")

	ctx := context.Background()
	sess := p.NewSession()
	defer sess.Close()

	var seq int64
	if _, err := sess.Execute(ctx, "THIS IS NOT SQL", WithSeqOut(&seq)); err == nil {
		t.Fatal("garbage statement succeeded")
	}
	if seq <= 0 {
		t.Fatalf("WithSeqOut recorded seq %d, want > 0", seq)
	}

	// 2x the recorder capacity of fast statements behind it (> 256).
	for i := 0; i < 2*obs.DefaultFlightRecorderCap; i++ {
		if _, err := sess.Execute(ctx, "SELECT ID FROM T"); err != nil {
			t.Fatal(err)
		}
	}

	rec, ok := p.Obs().QueryLog().FindRetained(seq)
	if !ok {
		t.Fatalf("seq %d no longer in the flight recorder after %d statements",
			seq, 2*obs.DefaultFlightRecorderCap)
	}
	if rec.Reason != obs.KeepError {
		t.Errorf("retained reason = %q, want %q", rec.Reason, obs.KeepError)
	}
	if rec.Statement != "THIS IS NOT SQL" {
		t.Errorf("retained statement = %q", rec.Statement)
	}
}
