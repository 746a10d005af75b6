package obs

import (
	"fmt"
	"io"
	"runtime"
	"strings"
)

// NormalizeMetricName maps an arbitrary string onto the Prometheus metric
// name charset [a-zA-Z_:][a-zA-Z0-9_:]*: invalid bytes become '_' and a
// leading digit gets a '_' prefix. Catalog names (names.go) are already
// valid; this guards names that arrive from outside the catalog, e.g. via
// tests or future dynamic registration.
func NormalizeMetricName(name string) string {
	if name == "" {
		return "_"
	}
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		switch {
		case ok:
			b.WriteByte(c)
		case c >= '0' && c <= '9': // leading digit
			b.WriteByte('_')
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// EscapeLabelValue escapes a label value per the text exposition format:
// backslash, double quote, and line feed must be escaped inside the quoted
// value.
func EscapeLabelValue(v string) string {
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// escapeHelp escapes HELP text: only backslash and line feed are special
// there (quotes are not).
func escapeHelp(v string) string {
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// writeHeader emits the optional # HELP line (from the names.go catalog) and
// the # TYPE line for one metric family.
func writeHeader(w io.Writer, name, typ string) error {
	if help := Help(name); help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
	return err
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): every counter as a counter metric, every registry
// gauge as a gauge, every log2 histogram as a cumulative-bucket histogram
// (the non-cumulative bucket counts in a HistSnapshot are summed into
// le-bounded buckets plus +Inf, as the format requires), every vec as a
// labeled family, the open-connection count as a gauge, and two process
// gauges (goroutines, heap in use) so a scrape answers "is the server
// healthy" without the wire protocol. Metric names are normalized to the
// format's charset and label values escaped per its quoting rules; HELP
// lines come from the names.go catalog. A nil registry renders only the
// process gauges. The output is deterministic (names and labels sorted) so
// tests can assert it.
func WritePrometheus(w io.Writer, r *Registry) error {
	for _, c := range r.Counters() {
		name := NormalizeMetricName(c.Name)
		if err := writeHeader(w, name, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", name, c.Value); err != nil {
			return err
		}
	}
	for _, v := range r.CounterVecs() {
		name := NormalizeMetricName(v.Name())
		key := NormalizeMetricName(v.Key())
		if err := writeHeader(w, name, "counter"); err != nil {
			return err
		}
		for _, s := range v.Snapshot() {
			if _, err := fmt.Fprintf(w, "%s{%s=\"%s\"} %d\n", name, key, EscapeLabelValue(s.Label), s.Value); err != nil {
				return err
			}
		}
	}
	for _, g := range r.Gauges() {
		name := NormalizeMetricName(g.Name)
		if err := writeHeader(w, name, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", name, g.Value); err != nil {
			return err
		}
	}
	for _, h := range r.Histograms() {
		if err := writeHistogram(w, NormalizeMetricName(h.Name), "", "", h.Snap); err != nil {
			return err
		}
	}
	for _, v := range r.HistogramVecs() {
		name := NormalizeMetricName(v.Name())
		key := NormalizeMetricName(v.Key())
		if err := writeHeader(w, name, "histogram"); err != nil {
			return err
		}
		for _, s := range v.Snapshot() {
			if err := writeHistogramSeries(w, name, key, s.Label, s.Value); err != nil {
				return err
			}
		}
	}
	if conns := r.Connections(); conns != nil {
		if _, err := fmt.Fprintf(w, "# TYPE dm_connections_open gauge\ndm_connections_open %d\n", len(conns.Snapshot())); err != nil {
			return err
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if _, err := fmt.Fprintf(w, "# TYPE go_goroutines gauge\ngo_goroutines %d\n", runtime.NumGoroutine()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "# TYPE go_heap_inuse_bytes gauge\ngo_heap_inuse_bytes %d\n", ms.HeapInuse)
	return err
}

// writeHistogram renders one histogram family header plus its series; key
// may be "" for an unlabeled histogram.
func writeHistogram(w io.Writer, name, key, label string, s HistSnapshot) error {
	if err := writeHeader(w, name, "histogram"); err != nil {
		return err
	}
	return writeHistogramSeries(w, name, key, label, s)
}

// writeHistogramSeries renders one histogram series (cumulative le buckets,
// +Inf, sum, count), tagged with key="label" when key is non-empty.
func writeHistogramSeries(w io.Writer, name, key, label string, s HistSnapshot) error {
	extra := ""
	suffix := ""
	if key != "" {
		extra = fmt.Sprintf("%s=\"%s\",", key, EscapeLabelValue(label))
		suffix = fmt.Sprintf("{%s=\"%s\"}", key, EscapeLabelValue(label))
	}
	cum := int64(0)
	for _, b := range s.Buckets {
		cum += b.Count
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"%d\"} %d\n", name, extra, b.UpperBound, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, extra, s.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", name, suffix, s.Sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, suffix, s.Count)
	return err
}
