// Package dmserver exposes a provider over TCP, reproducing the deployment
// shape of Figure 1 in the paper: applications talk to an out-of-process
// "analysis server" that owns the mining models, while the command surface
// stays identical to the in-process API.
//
// Wire protocol (binary; one request/response pair at a time per connection):
//
//	connection := preamble (request response)*
//	preamble   := "DMX" version:byte  (version 1)
//	request   := verb:byte text:str [args]
//	  verb 1 (exec):     text = command
//	  verb 2 (prepared): text = prepared statement name, then args
//	  verb 3 (params):   text = command with '?' or '@name' placeholders, then args
//	response   := status:byte payload stats
//	  status 0 (ok):  payload = rowset in the rowset binary codec
//	  status 1 (err): payload = message:str
//	stats      := elapsed-us:uvarint rows:uvarint seq:uvarint
//	str        := len:uvarint bytes
//
// The args codec is in params.go. Every varint is in its minimal form, so a
// frame has one byte form. The client sends the preamble once, ahead of its
// first request; a change to this grammar bumps its version byte. A server
// that reads any other preamble — the bytes of a request in an older dialect
// included — sends one error response and closes the connection; status 1
// keeps that error readable to those older clients.
//
// Stats come with every response, errors included (rows 0), so a failed
// statement still reports its server-side wall time. Seq is the statement's
// query-log sequence number, 0 when the provider's observability is off: it
// joins the server-side $SYSTEM.DM_QUERY_LOG and $SYSTEM.DM_FLIGHT_RECORDER
// rows for that exact statement.
//
// Each connection is handled by its own goroutine and mapped onto one
// provider.Session: prepared-statement names are scoped to the connection,
// the session's origin label is the remote address, and the provider's
// admission control (when configured) bounds the connection's in-flight
// statements. Execution itself is safe under concurrency because catalog
// reads resolve against immutable snapshots.
package dmserver

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/provider"
	"repro/internal/rowset"
)

// Preamble opens every connection: the magic "DMX" and the protocol
// version byte.
const Preamble = "DMX\x01"

// errPreamble marks a connection that did not open with Preamble.
var errPreamble = errors.New("dmserver: not a DMX protocol version 1 client")

// Status bytes.
const (
	StatusOK  = 0
	StatusErr = 1
)

// MaxCommandLen bounds a single command (16 MiB) so a broken client cannot
// make the server allocate unboundedly.
const MaxCommandLen = 16 << 20

// DefaultIdleTimeout is how long a connection may sit idle between requests
// before the server drops it: without a read deadline, a dead client that
// never closes its socket pins a handler goroutine forever.
const DefaultIdleTimeout = 5 * time.Minute

// Server serves provider commands over a listener.
type Server struct {
	Provider *provider.Provider
	// Logf logs connection-level failures; log.Printf by default.
	Logf func(format string, args ...any)
	// IdleTimeout bounds the wait for the next request on an open
	// connection. Zero means DefaultIdleTimeout; negative disables the
	// deadline. Set before calling Serve.
	IdleTimeout time.Duration
	// SlowQuery, when positive, logs any statement whose wall time meets the
	// threshold, with its per-stage breakdown. Set before calling Serve.
	SlowQuery time.Duration
	// BaseContext, when non-nil, is the root context every statement
	// executes under, letting an embedder thread its own shutdown signal.
	// The server derives its execution context from it (or from an internal
	// root when nil) in Serve and cancels that context in Close, so
	// in-flight statements abort instead of running to completion against a
	// closed server. Set before calling Serve.
	BaseContext context.Context
	// HistoryInterval is the $SYSTEM.DM_METRICS_HISTORY snapshot period.
	// Zero means obs.DefaultHistoryInterval; negative disables the history
	// ticker. Set before calling Serve; Close stops the ticker.
	HistoryInterval time.Duration

	mu          sync.Mutex
	listener    net.Listener
	conns       map[net.Conn]struct{}
	closed      bool
	execCtx     context.Context // statement root, derived in Serve
	cancel      context.CancelFunc
	stopHistory func() // stops the metrics-history ticker; set in Serve
}

// New returns a server for the provider.
func New(p *provider.Provider) *Server {
	return &Server{Provider: p, Logf: log.Printf, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections until the listener is closed (by Close). A
// Server serves at most one listener: a second Serve call would silently
// overwrite s.listener and orphan the first accept loop (Close could no
// longer reach it), so it is rejected.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("dmserver: server is closed")
	}
	if s.listener != nil {
		s.mu.Unlock()
		return fmt.Errorf("dmserver: Serve called twice on the same Server")
	}
	s.listener = l
	base := s.BaseContext
	if base == nil {
		base = context.Background() //dmlint:allow ctxflow — the server is the root of the call chain when the embedder supplies no BaseContext; Close cancels the derived context.
	}
	s.execCtx, s.cancel = context.WithCancel(base)
	if s.HistoryInterval >= 0 {
		s.stopHistory = s.Provider.Obs().StartHistoryTicker(s.HistoryInterval)
	}
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// ListenAndServe listens on addr and serves.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Addr returns the bound address, if serving.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return nil
	}
	return s.listener.Addr()
}

// Close stops accepting, cancels the execution context so in-flight
// statements abort at their next cancellation poll, and closes every open
// connection.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.cancel != nil {
		s.cancel()
	}
	if s.stopHistory != nil {
		s.stopHistory()
	}
	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	return err
}

func (s *Server) handle(conn net.Conn) {
	remote := conn.RemoteAddr().String()
	s.mu.Lock()
	execCtx := s.execCtx
	s.mu.Unlock()
	// One session per connection: handles PREPAREd here are invisible to
	// other connections and vanish when the connection ends.
	sess := s.Provider.NewSession(provider.WithSessionOrigin(remote))
	cs := s.Provider.Obs().Connections().Open(remote)
	cs.BindSession(remote, sess.InFlight)
	defer func() {
		sess.Close()
		s.Provider.Obs().Connections().Close(cs)
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	idle := s.IdleTimeout
	if idle == 0 {
		idle = DefaultIdleTimeout
	}
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	for first := true; ; first = false {
		if idle > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(idle)); err != nil {
				return
			}
		}
		req, err := readRequest(br, first)
		if err != nil {
			if errors.Is(err, errPreamble) {
				writeResponse(bw, nil, err, ExecStats{}) //nolint:errcheck // the connection closes either way
			}
			if !errors.Is(err, io.EOF) && !isClosedConn(err) && !isTimeout(err) {
				s.Logf("dmserver: read: %v", err)
			}
			return
		}
		// The deadline covers idle waiting only; command execution and the
		// response write are not bounded by it.
		if idle > 0 {
			if err := conn.SetReadDeadline(time.Time{}); err != nil {
				return
			}
		}
		start := time.Now()
		var rs *rowset.Rowset
		var execErr error
		var seq int64
		seqOpt := provider.WithSeqOut(&seq)
		switch req.verb {
		case VerbExecutePrepared:
			rs, execErr = sess.ExecutePrepared(execCtx, req.text, req.args, seqOpt)
		case VerbExecParams:
			rs, execErr = sess.ExecuteParams(execCtx, req.text, req.args, seqOpt)
		default:
			rs, execErr = sess.Execute(execCtx, req.text, seqOpt)
		}
		stats := ExecStats{Elapsed: time.Since(start), Seq: seq}
		if execErr == nil {
			stats.Rows = int64(rs.Len())
		}
		cs.Request(execErr != nil)
		if s.SlowQuery > 0 && stats.Elapsed >= s.SlowQuery {
			s.Logf("dmserver: slow query (%s) from %s: %s", stats.Elapsed.Round(time.Microsecond), remote, truncate(req.label(), 200))
		}
		if err := writeResponse(bw, rs, execErr, stats); err != nil {
			var ne net.Error
			if !errors.As(err, &ne) {
				s.Logf("dmserver: write: %v", err)
			}
			return
		}
	}
}

// truncate bounds a statement for log lines.
func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// request is one decoded client request.
type request struct {
	verb byte
	text string // the command, or the prepared statement's name (VerbExecutePrepared)
	args []rowset.Value
}

// label is the request's statement text for log lines.
func (r *request) label() string {
	if r.verb == VerbExecutePrepared {
		return "EXECUTE " + r.text
	}
	return r.text
}

// readRequest reads one request; the connection's first request is read
// with the preamble ahead of it.
func readRequest(br *bufio.Reader, first bool) (*request, error) {
	if first {
		for i := 0; i < len(Preamble); i++ {
			b, err := br.ReadByte()
			if err != nil {
				return nil, err
			}
			if b != Preamble[i] {
				return nil, errPreamble
			}
		}
	}
	verb, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if verb != VerbExec && verb != VerbExecutePrepared && verb != VerbExecParams {
		return nil, fmt.Errorf("dmserver: bad request verb %d", verb)
	}
	req := &request{verb: verb}
	if req.text, err = readFrame(br); err != nil {
		return nil, err
	}
	if verb != VerbExec {
		if req.args, err = readArgs(br); err != nil {
			return nil, err
		}
	}
	return req, nil
}

// WriteRequest writes one request and flushes it (shared with the client
// package). text is the command, or the prepared statement's name for
// VerbExecutePrepared; args go with every verb but VerbExec.
func WriteRequest(w *bufio.Writer, verb byte, text string, args []rowset.Value) error {
	w.WriteByte(verb) //nolint:errcheck // bufio.Writer errors surface at Flush
	writeFrame(w, text)
	if verb != VerbExec {
		if err := writeArgs(w, args); err != nil {
			return err
		}
	}
	return w.Flush()
}

// writeResponse writes one response and flushes it: the rowset on success,
// else execErr's message, then the stats.
func writeResponse(bw *bufio.Writer, rs *rowset.Rowset, execErr error, st ExecStats) error {
	if execErr != nil {
		bw.WriteByte(StatusErr) //nolint:errcheck // bufio.Writer errors surface at Flush
		writeFrame(bw, execErr.Error())
	} else {
		bw.WriteByte(StatusOK) //nolint:errcheck
		if err := rs.Encode(bw); err != nil {
			return err
		}
	}
	for _, v := range [...]int64{st.Elapsed.Microseconds(), st.Rows, st.Seq} {
		bw.Write(binary.AppendUvarint(room(bw, binary.MaxVarintLen64), uint64(v))) //nolint:errcheck
	}
	return bw.Flush()
}

// ReadResponse reads one response from br (shared with the client package).
// A statement that failed on the server returns its stats with a
// *RemoteError; any other error means the stream is broken and stats is
// zero.
func ReadResponse(br *bufio.Reader) (*rowset.Rowset, ExecStats, error) {
	status, err := br.ReadByte()
	if err != nil {
		return nil, ExecStats{}, err
	}
	var rs *rowset.Rowset
	var execErr error
	switch status {
	case StatusOK:
		if rs, err = rowset.DecodeFrom(br); err != nil {
			return nil, ExecStats{}, err
		}
	case StatusErr:
		msg, err := readFrame(br)
		if err != nil {
			return nil, ExecStats{}, err
		}
		execErr = &RemoteError{Msg: msg}
	default:
		return nil, ExecStats{}, fmt.Errorf("dmserver: bad response status %d", status)
	}
	var v [3]uint64
	for i := range v {
		if v[i], err = rowset.ReadUvarint(br); err != nil {
			return nil, ExecStats{}, fmt.Errorf("dmserver: read stats: %w", err)
		}
	}
	if v[0] > math.MaxInt64/uint64(time.Microsecond) {
		return nil, ExecStats{}, fmt.Errorf("dmserver: elapsed %dus out of range", v[0])
	}
	return rs, ExecStats{Elapsed: time.Duration(v[0]) * time.Microsecond, Rows: int64(v[1]), Seq: int64(v[2])}, execErr
}

// ExecStats is the server-side execution summary every response carries.
type ExecStats struct {
	// Elapsed is the statement's server-side wall time.
	Elapsed time.Duration
	// Rows is the number of result rows (0 for a failed statement).
	Rows int64
	// Seq is the statement's query-log sequence number: the join key into
	// $SYSTEM.DM_QUERY_LOG and $SYSTEM.DM_FLIGHT_RECORDER on the server.
	// Zero when the server ran with observability off.
	Seq int64
}

// room returns bw's free buffer, empty, after flushing bw if it has fewer
// than n bytes free: the caller appends up to n bytes and writes them back
// without allocating. Every varint and fixed-width number of a frame is
// written this way.
func room(bw *bufio.Writer, n int) []byte {
	if bw.Available() < n {
		bw.Flush() //nolint:errcheck // bufio.Writer errors surface at Flush
	}
	return bw.AvailableBuffer()
}

// writeFrame writes a uvarint-length-prefixed string.
func writeFrame(bw *bufio.Writer, s string) {
	bw.Write(binary.AppendUvarint(room(bw, binary.MaxVarintLen64), uint64(len(s)))) //nolint:errcheck // bufio.Writer errors surface at Flush
	bw.WriteString(s)                                                               //nolint:errcheck
}

// readFrame reads a uvarint-length-prefixed string.
func readFrame(br *bufio.Reader) (string, error) {
	n, err := rowset.ReadUvarint(br)
	if err != nil {
		return "", err
	}
	if n > MaxCommandLen {
		return "", fmt.Errorf("dmserver: frame length %d exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func isClosedConn(err error) bool {
	return errors.Is(err, net.ErrClosed)
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// RemoteError is a provider-side error surfaced to the client.
type RemoteError struct {
	Msg string
}

func (e *RemoteError) Error() string { return e.Msg }
