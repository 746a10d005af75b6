package schemarowset

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/rowset"
)

// This file applies the paper's self-description idea to the provider's
// runtime state: the statement store, metrics, metrics history and
// connection tracker collected by internal/obs surface as $SYSTEM schema
// rowsets (DM_QUERY_LOG, DM_PROVIDER_METRICS, DM_METRICS_HISTORY,
// DM_CONNECTIONS here; DM_FLIGHT_RECORDER in tracerowsets.go), so
// observability is queryable with the same SELECT surface as everything else.

// QueryLog renders $SYSTEM.DM_QUERY_LOG: the most recent statements, oldest
// first, with per-stage timings in microseconds.
func QueryLog(o *obs.Registry) (*rowset.Rowset, error) {
	rs := rowset.New(rowset.MustSchema(
		rowset.Column{Name: "SEQ", Type: rowset.TypeLong},
		rowset.Column{Name: "START_TIME", Type: rowset.TypeDate},
		rowset.Column{Name: "STATEMENT", Type: rowset.TypeText},
		rowset.Column{Name: "KIND", Type: rowset.TypeText},
		rowset.Column{Name: "ORIGIN", Type: rowset.TypeText},
		rowset.Column{Name: "ERROR_CLASS", Type: rowset.TypeText},
		rowset.Column{Name: "ELAPSED_US", Type: rowset.TypeLong},
		rowset.Column{Name: "PARSE_US", Type: rowset.TypeLong},
		rowset.Column{Name: "BIND_US", Type: rowset.TypeLong},
		rowset.Column{Name: "SOURCE_US", Type: rowset.TypeLong},
		rowset.Column{Name: "TRAIN_US", Type: rowset.TypeLong},
		rowset.Column{Name: "SCAN_US", Type: rowset.TypeLong},
		rowset.Column{Name: "ROWS_IN", Type: rowset.TypeLong},
		rowset.Column{Name: "ROWS_OUT", Type: rowset.TypeLong},
		rowset.Column{Name: "PARALLELISM", Type: rowset.TypeLong},
	))
	for _, r := range o.QueryLog().Snapshot() {
		err := rs.AppendVals(
			r.Seq,
			r.Start,
			r.Statement,
			r.Kind,
			r.Origin,
			r.ErrClass,
			r.Elapsed.Microseconds(),
			r.Stages[obs.StageParse].Microseconds(),
			r.Stages[obs.StageBind].Microseconds(),
			r.Stages[obs.StageSource].Microseconds(),
			r.Stages[obs.StageTrain].Microseconds(),
			r.Stages[obs.StageScan].Microseconds(),
			r.RowsIn,
			r.RowsOut,
			int64(r.Parallelism),
		)
		if err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// ProviderMetrics renders $SYSTEM.DM_PROVIDER_METRICS: one row per counter
// (METRIC_TYPE "counter") and one row per non-empty histogram bucket
// (METRIC_TYPE "histogram", bucket bound in BUCKET_LE), plus a _count/_sum
// summary pair and derived _p50/_p95/_p99 rows (METRIC_TYPE "quantile",
// interpolated within the log2 buckets) per histogram, and two process
// gauges (goroutines, heap in use) so the rowset answers latency and health
// questions without client-side bucket math.
func ProviderMetrics(o *obs.Registry) (*rowset.Rowset, error) {
	rs := rowset.New(rowset.MustSchema(
		rowset.Column{Name: "METRIC_NAME", Type: rowset.TypeText},
		rowset.Column{Name: "METRIC_TYPE", Type: rowset.TypeText},
		rowset.Column{Name: "BUCKET_LE", Type: rowset.TypeLong},
		rowset.Column{Name: "VALUE", Type: rowset.TypeLong},
	))
	for _, c := range o.Counters() {
		if err := rs.AppendVals(c.Name, "counter", nil, c.Value); err != nil {
			return nil, err
		}
	}
	for _, g := range o.Gauges() {
		if err := rs.AppendVals(g.Name, "gauge", nil, g.Value); err != nil {
			return nil, err
		}
	}
	for _, v := range o.CounterVecs() {
		for _, s := range v.Snapshot() {
			name := fmt.Sprintf("%s{%s=%q}", v.Name(), v.Key(), s.Label)
			if err := rs.AppendVals(name, "counter", nil, s.Value); err != nil {
				return nil, err
			}
		}
	}
	for _, v := range o.HistogramVecs() {
		for _, s := range v.Snapshot() {
			name := fmt.Sprintf("%s{%s=%q}", v.Name(), v.Key(), s.Label)
			if err := rs.AppendVals(name+"_count", "histogram", nil, s.Value.Count); err != nil {
				return nil, err
			}
			if err := rs.AppendVals(name+"_sum", "histogram", nil, s.Value.Sum); err != nil {
				return nil, err
			}
			if err := rs.AppendVals(name+"_p95", "quantile", nil, s.Value.Quantile(0.95)); err != nil {
				return nil, err
			}
		}
	}
	for _, h := range o.Histograms() {
		if err := rs.AppendVals(h.Name+"_count", "histogram", nil, h.Snap.Count); err != nil {
			return nil, err
		}
		if err := rs.AppendVals(h.Name+"_sum", "histogram", nil, h.Snap.Sum); err != nil {
			return nil, err
		}
		for _, q := range []struct {
			suffix string
			q      float64
		}{{"_p50", 0.50}, {"_p95", 0.95}, {"_p99", 0.99}} {
			if err := rs.AppendVals(h.Name+q.suffix, "quantile", nil, h.Snap.Quantile(q.q)); err != nil {
				return nil, err
			}
		}
		for _, b := range h.Snap.Buckets {
			if err := rs.AppendVals(h.Name, "histogram", b.UpperBound, b.Count); err != nil {
				return nil, err
			}
		}
	}
	// With observability disabled the rowset stays entirely empty, matching
	// the other DM_* rowsets.
	if o != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if err := rs.AppendVals("go_goroutines", "gauge", nil, int64(runtime.NumGoroutine())); err != nil {
			return nil, err
		}
		if err := rs.AppendVals("go_heap_inuse_bytes", "gauge", nil, int64(ms.HeapInuse)); err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// Connections renders $SYSTEM.DM_CONNECTIONS: the server's live connections,
// including the provider session each one is bound to (SESSION_ORIGIN) and
// that session's statements currently past admission (ADMISSION_INFLIGHT),
// so per-connection load is visible rather than only the aggregate admission
// gauges. An in-process provider with no server reports an empty rowset.
func Connections(o *obs.Registry) (*rowset.Rowset, error) {
	rs := rowset.New(rowset.MustSchema(
		rowset.Column{Name: "CONNECTION_ID", Type: rowset.TypeLong},
		rowset.Column{Name: "REMOTE_ADDRESS", Type: rowset.TypeText},
		rowset.Column{Name: "SESSION_ORIGIN", Type: rowset.TypeText},
		rowset.Column{Name: "OPENED", Type: rowset.TypeDate},
		rowset.Column{Name: "REQUESTS", Type: rowset.TypeLong},
		rowset.Column{Name: "ERRORS", Type: rowset.TypeLong},
		rowset.Column{Name: "ADMISSION_INFLIGHT", Type: rowset.TypeLong},
		rowset.Column{Name: "IDLE_US", Type: rowset.TypeLong},
	))
	for _, c := range o.Connections().Snapshot() {
		last := c.LastActive
		if last.IsZero() {
			last = c.Opened
		}
		idle := time.Since(last).Microseconds()
		if err := rs.AppendVals(c.ID, c.Remote, c.Origin, c.Opened, c.Requests, c.Errors, c.InFlight, idle); err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// MetricsHistory renders $SYSTEM.DM_METRICS_HISTORY: the periodic
// whole-registry snapshots taken by the history ticker, oldest first, one
// row per metric point. DELTA is the change since the same (NAME, LABEL)
// point in the previous snapshot (NULL on its first appearance), so rates
// over the ticker interval are a SELECT away — no external scraper needed.
func MetricsHistory(o *obs.Registry) (*rowset.Rowset, error) {
	rs := rowset.New(rowset.MustSchema(
		rowset.Column{Name: "TS", Type: rowset.TypeDate},
		rowset.Column{Name: "NAME", Type: rowset.TypeText},
		rowset.Column{Name: "LABEL", Type: rowset.TypeText},
		rowset.Column{Name: "VALUE", Type: rowset.TypeLong},
		rowset.Column{Name: "DELTA", Type: rowset.TypeLong},
	))
	prev := make(map[string]int64)
	for _, snap := range o.History().Snapshot() {
		for _, p := range snap.Points {
			key := p.Name + "\x00" + p.Label
			var delta rowset.Value
			if last, ok := prev[key]; ok {
				delta = p.Value - last
			}
			prev[key] = p.Value
			if err := rs.AppendVals(snap.TS, p.Name, p.Label, p.Value, delta); err != nil {
				return nil, err
			}
		}
	}
	return rs, nil
}

// FormatStages renders a record's non-zero stage timings for log lines, e.g.
// "parse=12µs scan=3.4ms".
func FormatStages(r obs.Record) string {
	var b strings.Builder
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		if d := r.Stages[s]; d > 0 {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%s=%s", s, d)
		}
	}
	return b.String()
}
