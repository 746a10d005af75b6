package obs

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// validPromName reports whether s matches the exposition format's metric
// name charset [a-zA-Z_:][a-zA-Z0-9_:]*.
func validPromName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '_' || c == ':',
			c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// parsePromLabels validates and consumes a `key="value",...}` label body,
// enforcing the format's escaping rules (only \\, \", and \n are legal
// escapes inside a quoted value; raw newlines and quotes are not).
func parsePromLabels(t *testing.T, line, body string) {
	t.Helper()
	for body != "" {
		eq := strings.IndexByte(body, '=')
		if eq <= 0 || !validPromName(body[:eq]) {
			t.Fatalf("bad label name in %q", line)
		}
		body = body[eq+1:]
		if len(body) == 0 || body[0] != '"' {
			t.Fatalf("unquoted label value in %q", line)
		}
		body = body[1:]
		for {
			if body == "" {
				t.Fatalf("unterminated label value in %q", line)
			}
			c := body[0]
			if c == '"' {
				body = body[1:]
				break
			}
			if c == '\\' {
				if len(body) < 2 || (body[1] != '\\' && body[1] != '"' && body[1] != 'n') {
					t.Fatalf("illegal escape in %q", line)
				}
				body = body[2:]
				continue
			}
			body = body[1:]
		}
		switch {
		case body == "" || body == "}":
			return
		case body[0] == ',':
			body = body[1:]
		default:
			t.Fatalf("junk after label value in %q", line)
		}
	}
}

// parsePromText is an exposition-format (0.0.4) conformance parser: every
// line must be a well-formed # HELP/# TYPE comment or a
// "name[{labels}] value" sample with a valid metric name, legally escaped
// label values, and a numeric value. It fails the test on any malformed
// line, which is the "parseable Prometheus text" acceptance check.
func parsePromText(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) < 3 || (fields[1] != "TYPE" && fields[1] != "HELP") {
				t.Fatalf("malformed comment line %q", line)
			}
			if !validPromName(fields[2]) {
				t.Fatalf("invalid metric name in comment %q", line)
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					t.Fatalf("malformed TYPE line %q", line)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					t.Fatalf("unknown metric type in %q", line)
				}
			}
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		name, val := line[:idx], line[idx+1:]
		if brace := strings.IndexByte(name, '{'); brace >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("unterminated label set in %q", line)
			}
			parsePromLabels(t, line, name[brace+1:])
			if !validPromName(name[:brace]) {
				t.Fatalf("invalid metric name in %q", line)
			}
		} else if !validPromName(name) {
			t.Fatalf("invalid metric name in %q", line)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("non-numeric value in %q: %v", line, err)
		}
		samples[name] = f
	}
	return samples
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("provider_statements_total").Add(7)
	h := r.Histogram("provider_statement_latency_us")
	h.Observe(10)
	h.Observe(10)
	h.Observe(1000)

	var b strings.Builder
	if err := WritePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	samples := parsePromText(t, b.String())

	if samples["provider_statements_total"] != 7 {
		t.Fatalf("counter = %v, want 7", samples["provider_statements_total"])
	}
	if samples["provider_statement_latency_us_count"] != 3 {
		t.Fatalf("histogram count = %v", samples["provider_statement_latency_us_count"])
	}
	if samples["provider_statement_latency_us_sum"] != 1020 {
		t.Fatalf("histogram sum = %v", samples["provider_statement_latency_us_sum"])
	}
	if samples[`provider_statement_latency_us_bucket{le="+Inf"}`] != 3 {
		t.Fatalf("+Inf bucket = %v, want 3", samples[`provider_statement_latency_us_bucket{le="+Inf"}`])
	}
	// Buckets must be cumulative: the le="15" bucket holds both 10s.
	if samples[`provider_statement_latency_us_bucket{le="15"}`] != 2 {
		t.Fatalf("le=15 bucket = %v, want 2 (cumulative)", samples[`provider_statement_latency_us_bucket{le="15"}`])
	}
	if samples["go_goroutines"] <= 0 {
		t.Fatalf("go_goroutines = %v", samples["go_goroutines"])
	}
	if samples["go_heap_inuse_bytes"] <= 0 {
		t.Fatalf("go_heap_inuse_bytes = %v", samples["go_heap_inuse_bytes"])
	}
	if _, ok := samples["dm_connections_open"]; !ok {
		t.Fatal("dm_connections_open gauge missing")
	}
}

// TestWritePrometheusEscaping drives hostile names and label values through
// the writer and asserts the output still conforms: invalid name bytes are
// normalized, and backslashes, quotes, and newlines in label values are
// escaped per the format.
func TestWritePrometheusEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("bad name-1.total").Add(1)
	r.Counter("0starts_with_digit").Add(2)
	v := r.CounterVec("labeled_total", "origin")
	v.With(`back\slash`).Add(1)
	v.With(`quo"te`).Add(2)
	v.With("new\nline").Add(3)
	hv := r.HistogramVec("labeled_us", "origin")
	hv.With(`evil"\value` + "\n").Observe(10)

	var b strings.Builder
	if err := WritePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	samples := parsePromText(t, out)

	if samples["bad_name_1_total"] != 1 {
		t.Fatalf("normalized counter missing: %v", samples)
	}
	if samples["_0starts_with_digit"] != 2 {
		t.Fatalf("digit-led name not prefixed: %v", samples)
	}
	for _, want := range []string{
		`labeled_total{origin="back\\slash"} 1`,
		`labeled_total{origin="quo\"te"} 2`,
		`labeled_total{origin="new\nline"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "new\nline") {
		t.Fatal("raw newline leaked into a label value")
	}
	if samples[`labeled_us_count{origin="evil\"\\value\n"}`] != 1 {
		t.Fatalf("escaped histogram vec series missing: %v", samples)
	}
}

// TestWritePrometheusHelpAndVecs: catalog metrics carry HELP lines, and vec
// families render one labeled series per child under a single TYPE header.
func TestWritePrometheusHelpAndVecs(t *testing.T) {
	r := NewRegistry()
	r.CounterVec(MetricStatementsByClass, LabelClass).With("PREDICT").Add(5)
	r.CounterVec(MetricStatementsByClass, LabelClass).With("SQL").Add(2)
	r.HistogramVec(MetricLatencyByClass, LabelClass).With("PREDICT").Observe(100)

	var b strings.Builder
	if err := WritePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	samples := parsePromText(t, out)

	if !strings.Contains(out, "# HELP "+MetricStatementsByClass+" ") {
		t.Fatalf("HELP line missing for %s:\n%s", MetricStatementsByClass, out)
	}
	if n := strings.Count(out, "# TYPE "+MetricStatementsByClass+" counter"); n != 1 {
		t.Fatalf("vec family has %d TYPE headers, want 1", n)
	}
	if samples[MetricStatementsByClass+`{class="PREDICT"}`] != 5 {
		t.Fatalf("labeled counter sample missing: %v", samples)
	}
	if samples[MetricStatementsByClass+`{class="SQL"}`] != 2 {
		t.Fatalf("labeled counter sample missing: %v", samples)
	}
	if samples[MetricLatencyByClass+`_count{class="PREDICT"}`] != 1 {
		t.Fatalf("labeled histogram count missing: %v", samples)
	}
	if samples[MetricLatencyByClass+`_bucket{class="PREDICT",le="+Inf"}`] != 1 {
		t.Fatalf("labeled +Inf bucket missing: %v", samples)
	}
}

func TestNormalizeMetricName(t *testing.T) {
	for in, want := range map[string]string{
		"ok_name:total": "ok_name:total",
		"bad name":      "bad_name",
		"9lives":        "_9lives",
		"":              "_",
		"a.b-c/d":       "a_b_c_d",
	} {
		if got := NormalizeMetricName(in); got != want {
			t.Fatalf("NormalizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWritePrometheusCumulativeMonotone(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	for i := int64(1); i < 5000; i *= 3 {
		h.Observe(i)
	}
	var b strings.Builder
	if err := WritePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	last := -1.0
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, "h_bucket{") {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%f", &v); err != nil {
			t.Fatalf("bad bucket line %q", line)
		}
		if v < last {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		last = v
	}
}

func TestWritePrometheusNilRegistry(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, nil); err != nil {
		t.Fatal(err)
	}
	samples := parsePromText(t, b.String())
	if samples["go_goroutines"] <= 0 {
		t.Fatal("nil registry should still expose process gauges")
	}
}
