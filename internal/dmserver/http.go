package dmserver

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/obs"
)

// DiagnosticsHandler serves the opt-in HTTP diagnostics surface next to the
// wire protocol: /metrics (the obs registry in Prometheus text format),
// /healthz (liveness), /debug/flightrecorder (the tail-retained statement
// records as JSON), and the standard /debug/pprof endpoints. The pprof
// handlers are wired explicitly onto a private mux — the diagnostics
// listener never serves DefaultServeMux, so nothing the embedding program
// registers globally leaks onto this port (or vice versa).
func DiagnosticsHandler(reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := obs.WritePrometheus(w, reg); err != nil {
			// Headers are gone; all we can do is drop the connection.
			return
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/debug/flightrecorder", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		recs := reg.QueryLog().Retained()
		out := make([]flightRecordJSON, 0, len(recs))
		for _, rec := range recs {
			out = append(out, flightRecordJSON{
				Seq:         rec.Seq,
				Start:       rec.Start.UTC().Format(time.RFC3339Nano),
				Statement:   rec.Statement,
				Kind:        rec.Kind,
				Origin:      rec.Origin,
				ErrClass:    rec.ErrClass,
				ElapsedUS:   rec.Elapsed.Microseconds(),
				Reason:      string(rec.Reason),
				ThresholdUS: rec.ThresholdUS,
				Root:        spanJSONTree(rec.Root.Span()),
			})
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Records []flightRecordJSON `json:"records"`
		}{out})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// flightRecordJSON is the /debug/flightrecorder wire shape for one record.
// Durations are microseconds to match the wire stats and DM_* rowsets.
type flightRecordJSON struct {
	Seq         int64     `json:"seq"`
	Start       string    `json:"start"`
	Statement   string    `json:"statement"`
	Kind        string    `json:"kind"`
	Origin      string    `json:"origin,omitempty"`
	ErrClass    string    `json:"err_class,omitempty"`
	ElapsedUS   int64     `json:"elapsed_us"`
	Reason      string    `json:"keep_reason"`
	ThresholdUS int64     `json:"threshold_us,omitempty"`
	Root        *spanJSON `json:"spans,omitempty"`
}

type spanJSON struct {
	Kind      string      `json:"kind"`
	Label     string      `json:"label,omitempty"`
	ElapsedUS int64       `json:"elapsed_us"`
	Rows      int64       `json:"rows"`
	Children  []*spanJSON `json:"children,omitempty"`
}

// spanJSONTree converts a finished (immutable) span tree for JSON rendering.
func spanJSONTree(sp *obs.Span) *spanJSON {
	if sp == nil {
		return nil
	}
	out := &spanJSON{Kind: sp.Kind, Label: sp.Label, ElapsedUS: sp.Elapsed.Microseconds(), Rows: sp.Rows}
	for _, c := range sp.Children {
		out.Children = append(out.Children, spanJSONTree(c))
	}
	return out
}
