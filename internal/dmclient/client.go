// Package dmclient is the TCP client for a dmserver provider: the consumer
// half of the paper's Figure 1 deployment. A Client is safe for concurrent
// use; requests serialize over one connection.
package dmclient

import (
	"bufio"
	"fmt"
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
	plainProtocol  bool
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

// WithPlainProtocol makes the client speak protocol v1 (no stats trailer),
// for servers predating the v2 marker. Stats() then never reports.
func WithPlainProtocol() Option {
	return func(c *config) { c.plainProtocol = true }
}

// Client is a connection to a remote provider.
type Client struct {
	requestTimeout time.Duration
	plain          bool

	mu       sync.Mutex
	conn     net.Conn
	br       *bufio.Reader
	bw       *bufio.Writer
	stats    dmserver.ExecStats
	hasStats bool
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
	return &Client{
		requestTimeout: cfg.requestTimeout,
		plain:          cfg.plainProtocol,
		conn:           conn,
		br:             bufio.NewReader(conn),
		bw:             bufio.NewWriter(conn),
	}, nil
}

// Execute runs one DMX/SQL command on the remote provider.
func (c *Client) Execute(command string) (*rowset.Rowset, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.requestTimeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.requestTimeout)); err != nil {
			return nil, err
		}
		defer c.conn.SetDeadline(time.Time{})
	}
	if c.plain {
		if err := dmserver.WriteRequest(c.bw, command); err != nil {
			return nil, err
		}
		return dmserver.ReadResponse(c.br)
	}
	if err := dmserver.WriteRequestStats(c.bw, command); err != nil {
		return nil, err
	}
	rs, stats, err := dmserver.ReadResponseStats(c.br)
	if stats != nil {
		c.stats, c.hasStats = *stats, true
	}
	return rs, err
}

// roundTrip serializes one request/response exchange: write sends the framed
// request, then one response is read and its stats (if any) recorded.
func (c *Client) roundTrip(write func(*bufio.Writer) error) (*rowset.Rowset, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.requestTimeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.requestTimeout)); err != nil {
			return nil, err
		}
		defer c.conn.SetDeadline(time.Time{})
	}
	if err := write(c.bw); err != nil {
		return nil, err
	}
	rs, stats, err := dmserver.ReadResponseStats(c.br)
	if stats != nil {
		c.stats, c.hasStats = *stats, true
	}
	return rs, err
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
// round-trip exactly. Requires protocol v3 (any current server); clients
// configured WithPlainProtocol cannot send parameters.
func (c *Client) ExecutePrepared(name string, args ...rowset.Value) (*rowset.Rowset, error) {
	if c.plain {
		return nil, fmt.Errorf("dmclient: server-side parameters require protocol v3 (client configured WithPlainProtocol)")
	}
	return c.roundTrip(func(bw *bufio.Writer) error {
		return dmserver.WriteRequestExecutePrepared(bw, name, args)
	})
}

// ExecuteParams runs command with positional args bound to its '?' or
// '@name' placeholders — one-shot server-side parameters without a named
// prepared statement. Requires protocol v3.
func (c *Client) ExecuteParams(command string, args ...rowset.Value) (*rowset.Rowset, error) {
	if c.plain {
		return nil, fmt.Errorf("dmclient: server-side parameters require protocol v3 (client configured WithPlainProtocol)")
	}
	return c.roundTrip(func(bw *bufio.Writer) error {
		return dmserver.WriteRequestExecParams(bw, command, args)
	})
}

// quoteName brackets an identifier, escaping closing brackets, so arbitrary
// names survive statement splicing.
func quoteName(name string) string {
	return "[" + strings.ReplaceAll(name, "]", "]]") + "]"
}

// Stats returns the server-side execution summary (elapsed time, row count)
// of the most recent Execute that carried one — failed statements report
// too, with Rows 0, since the server trailers errors as well (StatusErrStats).
// It reports false before the first completed request, when the server
// predates the v2 error trailer, or when the client was configured with
// WithPlainProtocol.
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
