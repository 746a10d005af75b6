package dmserver_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dmserver"
	"repro/internal/provider"
	"repro/internal/provider/providertest"
	"repro/internal/rowset"
)

// TestFlightRecorderReadsDuringTraffic: eight goroutines run statements —
// four sharing one session, four on sessions of their own — while
// $SYSTEM.DM_FLIGHT_RECORDER and /debug/flightrecorder are read
// concurrently. A statement's trace and span slab come from a process-wide
// free list and go back to it once the statement is recorded, and the
// flight recorder keeps its own copy of the trees it retains; under -race
// this pins that no reader sees a slab another statement is writing, and
// every tree read is whole.
func TestFlightRecorderReadsDuringTraffic(t *testing.T) {
	ctx := context.Background()
	p := providertest.MustNew()
	setup := p.NewSession()
	for _, st := range []string{
		"CREATE TABLE Nums (ID LONG, G TEXT, N DOUBLE)",
		"INSERT INTO Nums VALUES (1, 'a', 1.5), (2, 'b', 2.5), (3, 'a', 3.5), (4, 'b', 4.5)",
	} {
		if _, err := setup.Execute(ctx, st); err != nil {
			t.Fatal(err)
		}
	}
	shared := p.NewSession()
	if _, err := shared.Prepare(ctx, "pt", "SELECT N FROM Nums WHERE ID = ?"); err != nil {
		t.Fatal(err)
	}

	var running atomic.Int32
	var wg sync.WaitGroup
	for w := range 8 {
		s := shared
		if w >= 4 {
			s = p.NewSession(provider.WithSessionOrigin(fmt.Sprintf("w%d", w)))
			if _, err := s.Prepare(ctx, "pt", "SELECT N FROM Nums WHERE ID = ?"); err != nil {
				t.Fatal(err)
			}
		}
		running.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer running.Add(-1)
			for i := range 40 {
				if _, err := s.ExecutePrepared(ctx, "pt", []rowset.Value{int64(i%4 + 1)}); err != nil {
					t.Errorf("prepared: %v", err)
					return
				}
				if _, err := s.Execute(ctx, "SELECT G, COUNT(*) FROM Nums WHERE N > 1 GROUP BY G ORDER BY G"); err != nil {
					t.Errorf("group-by: %v", err)
					return
				}
				if _, err := s.Execute(ctx, "EXPLAIN ANALYZE SELECT N FROM Nums WHERE ID = 2"); err != nil {
					t.Errorf("explain analyze: %v", err)
					return
				}
				if _, err := s.Execute(ctx, "SELECT * FROM NoSuchTable"); err == nil {
					t.Error("a missing table did not fail")
					return
				}
			}
		}()
	}

	handler := dmserver.DiagnosticsHandler(p.Obs())
	reader := p.NewSession()
	readers := []func() error{
		func() error {
			rs, err := reader.Execute(ctx, "SELECT SEQ, DEPTH, OPERATOR, LABEL FROM $SYSTEM.DM_FLIGHT_RECORDER")
			if err != nil {
				return err
			}
			for _, r := range rs.Rows() {
				if r[1] == int64(0) && r[2] != "statement" {
					return fmt.Errorf("record %v: root operator %v, want statement", r[0], r[2])
				}
			}
			return nil
		},
		func() error {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flightrecorder", nil))
			var out struct {
				Records []struct {
					Seq   int64 `json:"seq"`
					Spans *struct {
						Kind string `json:"kind"`
					} `json:"spans"`
				} `json:"records"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				return err
			}
			for _, r := range out.Records {
				if r.Spans == nil || r.Spans.Kind != "statement" {
					return fmt.Errorf("record %d: spans %+v, want a statement root", r.Seq, r.Spans)
				}
			}
			return nil
		},
	}
	for _, read := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for running.Load() > 0 {
				if err := read(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
