package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"repro/internal/dmclient"
	"repro/internal/dmserver"
	"repro/internal/provider"
	"repro/internal/rowset"
	"repro/internal/workload"
)

// config is everything one run's inputs are generated from.
type config struct {
	Seed    int64   `json:"seed"`
	Scale   int     `json:"scale"`
	Seconds float64 `json:"seconds"`
	// Setups is how many times the set-up is repeated in an untraced run;
	// setup_s is their median and the last one is the system measured.
	Setups int `json:"setups"`
}

// reply is what a client observes from one statement: the result, the
// statement's $SYSTEM.DM_QUERY_LOG sequence number, and — over the wire — the
// server-side wall time from the stats trailer.
type reply struct {
	rs     *rowset.Rowset
	seq    int64
	server time.Duration
}

// conn is the path a client's statements take into the provider: an
// in-process session, or a dmclient connection to the loopback server.
type conn interface {
	execute(ctx context.Context, text string) (reply, error)
	prepare(ctx context.Context, name, text string) error
	executePrepared(ctx context.Context, name string, key int64) (reply, error)
	close()
}

type sessionConn struct{ s *provider.Session }

func (c sessionConn) execute(ctx context.Context, text string) (reply, error) {
	var r reply
	var err error
	r.rs, err = c.s.Execute(ctx, text, provider.WithSeqOut(&r.seq))
	return r, err
}

func (c sessionConn) prepare(ctx context.Context, name, text string) error {
	_, err := c.s.Prepare(ctx, name, text)
	return err
}

func (c sessionConn) executePrepared(ctx context.Context, name string, key int64) (reply, error) {
	var r reply
	var err error
	r.rs, err = c.s.ExecutePrepared(ctx, name, []rowset.Value{key}, provider.WithSeqOut(&r.seq))
	return r, err
}

func (c sessionConn) close() { c.s.Close() } //nolint:errcheck // Session.Close cannot fail

type wireConn struct{ c *dmclient.Client }

func (c wireConn) withStats(rs *rowset.Rowset, err error) (reply, error) {
	st, _ := c.c.Stats()
	return reply{rs: rs, seq: st.Seq, server: st.Elapsed}, err
}

func (c wireConn) execute(_ context.Context, text string) (reply, error) {
	return c.withStats(c.c.Execute(text))
}

func (c wireConn) prepare(_ context.Context, name, text string) error {
	return c.c.Prepare(name, text)
}

func (c wireConn) executePrepared(_ context.Context, name string, key int64) (reply, error) {
	return c.withStats(c.c.ExecutePrepared(name, key))
}

func (c wireConn) close() { c.c.Close() } //nolint:errcheck // nothing to do about a failed close of a loopback socket

// env is one system under test: a fresh provider over a generated warehouse,
// set up the way one workload needs it, plus one conn per closed-loop client.
type env struct {
	cfg     config
	p       *provider.Provider
	truth   *workload.Truth
	tables  map[string]int64 // base-table lengths, fixed by the generator
	local   conn             // in-process session: set-up, prep statements, reference results
	clients []conn
	srv     *dmserver.Server
	srvDone chan error
}

// newEnv performs the whole set-up of def — populate, index, model
// create/train, server start, PREPARE — and reports how long it took: the
// setup_s metric. noObs builds the provider with observability disabled (the
// obs_overhead_share comparison).
func newEnv(ctx context.Context, def *workloadDef, cfg config, noObs bool) (*env, time.Duration, error) {
	start := time.Now()
	var opts []provider.Option
	if noObs {
		opts = append(opts, provider.WithObsRegistry(nil))
	}
	p, err := provider.New(opts...)
	if err != nil {
		return nil, 0, err
	}
	e := &env{cfg: cfg, p: p, tables: make(map[string]int64)}
	e.truth, err = workload.Populate(p.DB, workload.Config{Customers: cfg.Scale, Seed: cfg.Seed})
	if err != nil {
		return nil, 0, err
	}
	for _, name := range p.DB.Names() {
		t, err := p.DB.Table(name)
		if err != nil {
			return nil, 0, err
		}
		e.tables[name] = int64(t.Len())
	}
	if def.index {
		t, err := p.DB.Table("Customers")
		if err != nil {
			return nil, 0, err
		}
		if err := t.CreateIndex("Customer ID"); err != nil {
			return nil, 0, err
		}
	}
	e.local = sessionConn{p.NewSession()}
	for _, stmt := range def.setup {
		if _, err := e.local.execute(ctx, stmt); err != nil {
			e.close()
			return nil, 0, fmt.Errorf("%s set-up: %w\nstatement: %s", def.name, err, stmt)
		}
	}
	if def.wire {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, 0, err
		}
		e.srv = dmserver.New(p)
		e.srvDone = make(chan error, 1)
		go func() { e.srvDone <- e.srv.Serve(l) }()
		for i := 0; i < def.clients; i++ {
			c, err := dmclient.New(l.Addr().String())
			if err != nil {
				e.close()
				return nil, 0, err
			}
			e.clients = append(e.clients, wireConn{c})
		}
	} else {
		for i := 0; i < def.clients; i++ {
			e.clients = append(e.clients, sessionConn{p.NewSession()})
		}
	}
	// Prepared handles are session-scoped: every client prepares its own,
	// and so does the local session the reference results come from.
	for _, c := range append([]conn{e.local}, e.clients...) {
		for _, ps := range def.prepared {
			if err := c.prepare(ctx, ps.handle, ps.text); err != nil {
				e.close()
				return nil, 0, fmt.Errorf("%s PREPARE %s: %w", def.name, ps.handle, err)
			}
		}
	}
	return e, time.Since(start), nil
}

// close stops the server and waits for its accept loop to return.
func (e *env) close() {
	for _, c := range e.clients {
		c.close()
	}
	if e.local != nil {
		e.local.close()
	}
	if e.srv != nil {
		e.srv.Close() //nolint:errcheck // closing the listener of a server we are discarding
		<-e.srvDone
	}
}
