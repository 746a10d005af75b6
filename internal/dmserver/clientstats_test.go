package dmserver_test

import (
	"testing"

	"repro/internal/dmclient"
	"repro/internal/dmserver"
	"repro/internal/provider/providertest"
)

// TestClientStatsAfterFailure: dmclient.Stats() reports the server-side
// summary of a failed Execute too — elapsed time with Rows 0 — and a later
// success overwrites it.
func TestClientStatsAfterFailure(t *testing.T) {
	p := providertest.MustNew()
	_, addr := startServer(t, p)
	c, err := dmclient.New(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, ok := c.Stats(); ok {
		t.Fatal("Stats reports before any request")
	}
	_, err = c.Execute("SELECT * FROM NoSuchTable")
	if err == nil {
		t.Fatal("query against a missing table must fail")
	}
	if _, ok := err.(*dmserver.RemoteError); !ok {
		t.Fatalf("error type = %T (%v)", err, err)
	}
	stats, ok := c.Stats()
	if !ok {
		t.Fatal("Stats must report after a failed Execute")
	}
	if stats.Rows != 0 {
		t.Errorf("failed Execute reports %d rows, want 0", stats.Rows)
	}
	if stats.Elapsed < 0 {
		t.Errorf("Elapsed = %v", stats.Elapsed)
	}

	rs, err := c.Execute("SELECT 1 + 1")
	if err != nil {
		t.Fatal(err)
	}
	stats, ok = c.Stats()
	if !ok || stats.Rows != int64(rs.Len()) {
		t.Errorf("Stats after success = %+v, %v; want rows %d", stats, ok, rs.Len())
	}

}
