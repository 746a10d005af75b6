package dmserver_test

import (
	"bufio"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/dmclient"
	"repro/internal/dmserver"
	"repro/internal/provider/providertest"
)

func TestRemotePreparedRoundTrip(t *testing.T) {
	p := providertest.MustNew()
	_, addr := startServer(t, p)
	c, err := dmclient.New(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Execute("CREATE TABLE T (id LONG, name TEXT)"); err != nil {
		t.Fatal(err)
	}
	// Quote-bearing values travel as binary frames, never as statement text.
	hostile := []string{"O'Brien", "x' OR '1'='1", "'; DROP TABLE T; --"}
	for i, name := range hostile {
		if _, err := c.ExecuteParams("INSERT INTO T VALUES (?, ?)", int64(i+1), name); err != nil {
			t.Fatalf("insert %q: %v", name, err)
		}
	}
	if err := c.Prepare("by_name", "SELECT id FROM T WHERE name = ?"); err != nil {
		t.Fatal(err)
	}
	for i, name := range hostile {
		rs, err := c.ExecutePrepared("by_name", name)
		if err != nil {
			t.Fatalf("execute %q: %v", name, err)
		}
		if rs.Len() != 1 || rs.Row(0)[0] != int64(i+1) {
			t.Errorf("lookup %q = %v", name, rs.Rows())
		}
	}
	// The injection-shaped value matched only its own row, and T survived.
	rs, err := c.Execute("SELECT COUNT(*) FROM T")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Row(0)[0] != int64(len(hostile)) {
		t.Errorf("row count = %v", rs.Row(0)[0])
	}
	if err := c.Deallocate("by_name"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecutePrepared("by_name", "O'Brien"); err == nil {
		t.Error("execute after deallocate must fail")
	}
}

func TestRemoteParamsAllTypes(t *testing.T) {
	p := providertest.MustNew()
	_, addr := startServer(t, p)
	c, err := dmclient.New(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Execute("CREATE TABLE V (b BOOL, l LONG, d DOUBLE, s TEXT, dt DATE, n TEXT)"); err != nil {
		t.Fatal(err)
	}
	ts := time.Date(2001, 4, 2, 15, 4, 5, 123456789, time.UTC)
	if _, err := c.ExecuteParams("INSERT INTO V VALUES (?, ?, ?, ?, ?, ?)",
		true, int64(-42), 2.5, "it's", ts, nil); err != nil {
		t.Fatal(err)
	}
	rs, err := c.Execute("SELECT * FROM V")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 {
		t.Fatalf("rows = %d", rs.Len())
	}
	row := rs.Row(0)
	if row[0] != true || row[1] != int64(-42) || row[2] != 2.5 || row[3] != "it's" {
		t.Errorf("scalar values = %v", row)
	}
	got, ok := row[4].(time.Time)
	if !ok || !got.Equal(ts) {
		t.Errorf("date = %v (%T), want %v", row[4], row[4], ts)
	}
	if row[5] != nil {
		t.Errorf("null = %v, want nil", row[5])
	}
}

// TestRemoteBadVerbClosesConnection: an unknown verb is a framing error —
// the server cannot know where the request ends, so it must drop the
// connection rather than guess.
func TestRemoteBadVerbClosesConnection(t *testing.T) {
	p := providertest.MustNew()
	_, addr := startServer(t, p)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The preamble, then an undefined verb byte.
	if _, err := conn.Write([]byte(dmserver.Preamble + "\xFF")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := bufio.NewReader(conn).ReadByte(); err != io.EOF {
		t.Errorf("read after bad verb = %v, want EOF (connection closed)", err)
	}
}

// TestRemoteStaleReplanOverWire: the prepare → drop → recreate flow works
// against a shared remote provider too, replanning transparently.
func TestRemoteStaleReplanOverWire(t *testing.T) {
	p := providertest.MustNew()
	_, addr := startServer(t, p)
	c, err := dmclient.New(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	steps := []string{
		"CREATE TABLE T (id LONG, v TEXT)",
		"INSERT INTO T VALUES (1, 'old')",
	}
	for _, s := range steps {
		if _, err := c.Execute(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Prepare("q", "SELECT v FROM T WHERE id = ?"); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{
		"DROP TABLE T",
		"CREATE TABLE T (id LONG, v TEXT)",
		"INSERT INTO T VALUES (1, 'new')",
	} {
		if _, err := c.Execute(s); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := c.ExecutePrepared("q", int64(1))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 || rs.Row(0)[0] != "new" {
		t.Errorf("post-recreate remote execute = %v, want the recreated table's row", rs.Rows())
	}
}
