// Package dmclient is the TCP client for a dmserver provider: the consumer
// half of the paper's Figure 1 deployment. A Client is safe for concurrent
// use; requests serialize over one connection.
package dmclient

import (
	"bufio"
	"errors"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/dmserver"
	"repro/internal/rowset"
)

// DefaultDialTimeout bounds connection establishment unless WithDialTimeout
// overrides it.
const DefaultDialTimeout = 10 * time.Second

// Option configures a Client before it connects.
type Option func(*config)

type config struct {
	dialTimeout    time.Duration
	requestTimeout time.Duration
}

// WithDialTimeout bounds connection establishment (DefaultDialTimeout when
// unset; zero or negative disables the bound).
func WithDialTimeout(d time.Duration) Option {
	return func(c *config) { c.dialTimeout = d }
}

// WithRequestTimeout bounds each Execute round trip: the connection's I/O
// deadline is set d past the moment the request is written. Zero (the
// default) means no per-request deadline.
func WithRequestTimeout(d time.Duration) Option {
	return func(c *config) { c.requestTimeout = d }
}

// Client is a connection to a remote provider.
type Client struct {
	requestTimeout time.Duration

	mu       sync.Mutex
	conn     net.Conn
	br       *bufio.Reader
	bw       *bufio.Writer
	stats    dmserver.ExecStats
	hasStats bool
	// broken is the first failure below the protocol (I/O or decode): the
	// stream's position is lost, so the connection is closed and every
	// later call returns this error.
	broken error
}

// New connects to a dmserver at addr.
func New(addr string, opts ...Option) (*Client, error) {
	cfg := config{dialTimeout: DefaultDialTimeout}
	for _, o := range opts {
		o(&cfg)
	}
	var conn net.Conn
	var err error
	if cfg.dialTimeout > 0 {
		conn, err = net.DialTimeout("tcp", addr, cfg.dialTimeout)
	} else {
		conn, err = net.Dial("tcp", addr)
	}
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(conn)
	// The preamble waits in the buffer and goes out with the first request:
	// no round trip of its own.
	bw.WriteString(dmserver.Preamble) //nolint:errcheck // bufio.Writer errors surface at Flush
	return &Client{
		requestTimeout: cfg.requestTimeout,
		conn:           conn,
		br:             bufio.NewReader(conn),
		bw:             bw,
	}, nil
}

// Execute runs one DMX/SQL command on the remote provider.
func (c *Client) Execute(command string) (*rowset.Rowset, error) {
	return c.roundTrip(dmserver.VerbExec, command, nil)
}

// roundTrip serializes one request/response exchange and records the
// response's stats.
func (c *Client) roundTrip(verb byte, text string, args []rowset.Value) (*rowset.Rowset, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken != nil {
		return nil, c.broken
	}
	rs, stats, err := c.exchange(verb, text, args)
	var remote *dmserver.RemoteError
	if err == nil || errors.As(err, &remote) {
		c.stats, c.hasStats = stats, true
		return rs, err
	}
	c.broken = err
	c.conn.Close()
	return nil, err
}

// exchange writes one request and reads its response under the request
// deadline.
func (c *Client) exchange(verb byte, text string, args []rowset.Value) (*rowset.Rowset, dmserver.ExecStats, error) {
	if c.requestTimeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.requestTimeout)); err != nil {
			return nil, dmserver.ExecStats{}, err
		}
		defer c.conn.SetDeadline(time.Time{})
	}
	if err := dmserver.WriteRequest(c.bw, verb, text, args); err != nil {
		return nil, dmserver.ExecStats{}, err
	}
	return dmserver.ReadResponse(c.br)
}

// Prepare registers command on the remote provider under name, for later
// ExecutePrepared calls. It is sugar for executing PREPARE <name> AS
// <command>; the name is bracket-quoted, so any identifier is safe.
func (c *Client) Prepare(name, command string) error {
	_, err := c.Execute("PREPARE " + quoteName(name) + " AS " + command)
	return err
}

// Deallocate drops the prepared statement name on the remote provider.
func (c *Client) Deallocate(name string) error {
	_, err := c.Execute("DEALLOCATE " + quoteName(name))
	return err
}

// ExecutePrepared runs the remote prepared statement name with args bound to
// its placeholders by position. Arguments travel in the protocol's binary
// codec — never spliced into command text — so string values with quotes
// round-trip exactly.
func (c *Client) ExecutePrepared(name string, args ...rowset.Value) (*rowset.Rowset, error) {
	return c.roundTrip(dmserver.VerbExecutePrepared, name, args)
}

// ExecuteParams runs command with positional args bound to its '?' or
// '@name' placeholders — one-shot server-side parameters without a named
// prepared statement.
func (c *Client) ExecuteParams(command string, args ...rowset.Value) (*rowset.Rowset, error) {
	return c.roundTrip(dmserver.VerbExecParams, command, args)
}

// quoteName brackets an identifier, escaping closing brackets, so arbitrary
// names survive statement splicing.
func quoteName(name string) string {
	return "[" + strings.ReplaceAll(name, "]", "]]") + "]"
}

// Stats returns the server-side execution summary (elapsed time, row count,
// query-log seq) of the most recent request the server answered — failed
// statements report too, with Rows 0. It reports false before the first
// answered request.
func (c *Client) Stats() (dmserver.ExecStats, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats, c.hasStats
}

// Close closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.Close()
}
