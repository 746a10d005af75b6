package dmserver_test

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/dmserver"
	"repro/internal/provider/providertest"
	"repro/internal/rowset"
)

// rawDial opens a plain TCP connection to poke the wire format directly.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// rawClient opens a raw connection whose writer already holds the preamble,
// so the first request written carries it.
func rawClient(t *testing.T, addr string) (*bufio.Reader, *bufio.Writer) {
	t.Helper()
	conn := rawDial(t, addr)
	bw := bufio.NewWriter(conn)
	bw.WriteString(dmserver.Preamble)
	return bufio.NewReader(conn), bw
}

func exec(t *testing.T, br *bufio.Reader, bw *bufio.Writer, command string) (*rowset.Rowset, dmserver.ExecStats, error) {
	t.Helper()
	if err := dmserver.WriteRequest(bw, dmserver.VerbExec, command, nil); err != nil {
		t.Fatal(err)
	}
	return dmserver.ReadResponse(br)
}

func TestOversizedCommandRejected(t *testing.T) {
	p := providertest.MustNew()
	_, addr := startServer(t, p)
	conn := rawDial(t, addr)
	// Claim a command far above MaxCommandLen; the server must drop the
	// connection rather than allocate.
	buf := append([]byte(dmserver.Preamble), dmserver.VerbExec)
	buf = binary.AppendUvarint(buf, uint64(dmserver.MaxCommandLen)+1)
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	one := make([]byte, 1)
	if _, err := conn.Read(one); err == nil {
		t.Error("server should close the connection on oversized command")
	}
}

func TestGarbageFrameClosesConnection(t *testing.T) {
	p := providertest.MustNew()
	_, addr := startServer(t, p)
	br, bw := rawClient(t, addr)
	// A well-framed command that fails to parse gets an error response, not
	// a dropped connection.
	_, _, err := exec(t, br, bw, "THIS IS NOT SQL")
	if err == nil {
		t.Fatal("garbage command must produce an error response")
	}
	if _, ok := err.(*dmserver.RemoteError); !ok {
		t.Errorf("error type = %T", err)
	}
	// The connection still serves the next request.
	rs, _, err := exec(t, br, bw, "SELECT 1 + 1")
	if err != nil || rs.Row(0)[0] != int64(2) {
		t.Errorf("follow-up = %v, %v", rs, err)
	}
}

func TestBadStatusByte(t *testing.T) {
	// ReadResponse on a stream with an unknown status byte errors cleanly.
	br := bufio.NewReader(badStatusReader{})
	if _, _, err := dmserver.ReadResponse(br); err == nil {
		t.Error("bad status byte must error")
	}
}

type badStatusReader struct{}

func (badStatusReader) Read(p []byte) (int, error) {
	p[0] = 0xFF
	return 1, nil
}

func TestListenAndServeBadAddr(t *testing.T) {
	s := dmserver.New(providertest.MustNew())
	if err := s.ListenAndServe("256.256.256.256:1"); err == nil {
		t.Error("bad address must fail")
	}
}

func TestRemoteErrorMessage(t *testing.T) {
	e := &dmserver.RemoteError{Msg: "boom"}
	if e.Error() != "boom" {
		t.Errorf("Error() = %q", e.Error())
	}
}

func TestStatsRequestGetsTrailer(t *testing.T) {
	p := providertest.MustNew()
	_, addr := startServer(t, p)
	br, bw := rawClient(t, addr)

	rs, stats, err := exec(t, br, bw, "SELECT 1 + 1")
	if err != nil {
		t.Fatalf("ReadResponse: %v", err)
	}
	if rs.Row(0)[0] != int64(2) {
		t.Errorf("result = %v", rs.Row(0))
	}
	if stats.Elapsed < 0 {
		t.Errorf("Elapsed = %v, want >= 0", stats.Elapsed)
	}
	if stats.Rows != int64(rs.Len()) {
		t.Errorf("stats.Rows = %d, rowset has %d", stats.Rows, rs.Len())
	}
}

func TestStatsRequestErrorPath(t *testing.T) {
	// A failed statement's response carries the error message and stats
	// (rows 0), so a failed statement still reports wall time.
	p := providertest.MustNew()
	_, addr := startServer(t, p)
	br, bw := rawClient(t, addr)

	rs, stats, err := exec(t, br, bw, "THIS IS NOT SQL")
	if err == nil {
		t.Fatal("garbage command must produce an error response")
	}
	if _, ok := err.(*dmserver.RemoteError); !ok {
		t.Errorf("error type = %T", err)
	}
	if rs != nil {
		t.Errorf("error response must carry no rowset, got %v", rs)
	}
	if stats.Rows != 0 {
		t.Errorf("failed statement reports %d rows, want 0", stats.Rows)
	}
	if stats.Elapsed < 0 {
		t.Errorf("Elapsed = %v, want >= 0", stats.Elapsed)
	}

	// The connection still serves requests after an error.
	if rs, _, err := exec(t, br, bw, "SELECT 1 + 1"); err != nil || rs.Row(0)[0] != int64(2) {
		t.Fatalf("follow-up after error = %v, %v", rs, err)
	}
}

func TestStatsTrailerCarriesSeq(t *testing.T) {
	// A statement's stats carry the server's query-log seq, and that seq
	// keys the statement's row in $SYSTEM.DM_QUERY_LOG.
	p := providertest.MustNew()
	_, addr := startServer(t, p)
	br, bw := rawClient(t, addr)

	_, stats, err := exec(t, br, bw, "SELECT 1 + 1")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Seq <= 0 {
		t.Fatalf("stats = %+v, want a positive Seq", stats)
	}
	first := stats.Seq

	if _, stats, err = exec(t, br, bw, "SELECT 2 + 2"); err != nil {
		t.Fatal(err)
	}
	if stats.Seq <= first {
		t.Errorf("second Seq = %d, want > %d", stats.Seq, first)
	}

	// Server-side join: the returned seq finds the statement in the log.
	rec, ok := p.Obs().QueryLog().Find(first)
	if !ok {
		t.Fatalf("seq %d not in DM_QUERY_LOG", first)
	}
	if rec.Statement != "SELECT 1 + 1" {
		t.Errorf("log row for seq %d holds %q", first, rec.Statement)
	}
}

func TestStatsTrailerErrorCarriesSeq(t *testing.T) {
	// Failed statements are logged too — their seq is how a client pulls the
	// failure back out of the flight recorder.
	p := providertest.MustNew()
	_, addr := startServer(t, p)
	br, bw := rawClient(t, addr)

	_, stats, err := exec(t, br, bw, "THIS IS NOT SQL")
	if err == nil {
		t.Fatal("garbage command must fail")
	}
	if stats.Seq <= 0 {
		t.Fatalf("error stats = %+v, want a positive Seq", stats)
	}
	// Errors are always retained: the seq must hit the flight recorder.
	if _, ok := p.Obs().QueryLog().FindRetained(stats.Seq); !ok {
		t.Errorf("seq %d not retained in the flight recorder", stats.Seq)
	}
}

// TestOldDialectRejected: a connection that does not open with the preamble
// — the request bytes of the three older dialects, or the right magic with
// another version — gets one error response, and then the server closes it.
func TestOldDialectRejected(t *testing.T) {
	p := providertest.MustNew()
	_, addr := startServer(t, p)
	command := append(binary.AppendUvarint(nil, 12), "SELECT 1 + 1"...)
	for name, raw := range map[string][]byte{
		"v1":            command,
		"v2":            append([]byte{0}, command...),
		"v3":            append([]byte{0, 0, dmserver.VerbExec}, command...),
		"wrong version": append([]byte("DMX\x02"), append([]byte{dmserver.VerbExec}, command...)...),
	} {
		conn := rawDial(t, addr)
		if _, err := conn.Write(raw); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		br := bufio.NewReader(conn)
		rs, _, err := dmserver.ReadResponse(br)
		if _, ok := err.(*dmserver.RemoteError); !ok || rs != nil {
			t.Errorf("%s: response = %v, %v; want one error response", name, rs, err)
		}
		if _, err := br.ReadByte(); err != io.EOF {
			t.Errorf("%s: read after the error response = %v, want EOF", name, err)
		}
	}
}
