package dmserver_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dmserver"
	"repro/internal/provider/providertest"
)

// TestDiagnosticsMetrics: /metrics serves parseable Prometheus text exposition
// containing the statement counters, with the right content type.
func TestDiagnosticsMetrics(t *testing.T) {
	p := providertest.MustNew()
	if _, err := p.NewSession().Execute(context.Background(), "SELECT 1 + 1"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(dmserver.DiagnosticsHandler(p.Obs()))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.Contains(text, "statements_total") {
		t.Errorf("metrics output missing statement counters:\n%s", text)
	}
	// Minimal exposition-format parse: every non-comment line is
	// "name{labels} value" or "name value".
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("unparseable metrics line %q", line)
		}
	}
}

func TestDiagnosticsHealthz(t *testing.T) {
	srv := httptest.NewServer(dmserver.DiagnosticsHandler(providertest.MustNew().Obs()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Errorf("healthz = %d %q", resp.StatusCode, body)
	}
}

func TestDiagnosticsPprof(t *testing.T) {
	srv := httptest.NewServer(dmserver.DiagnosticsHandler(providertest.MustNew().Obs()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof index = %d", resp.StatusCode)
	}
}
