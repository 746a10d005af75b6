package provider

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/rowset"
)

// ErrSessionClosed is returned by every Session method after Close.
var ErrSessionClosed = errors.New("provider: session is closed")

// BusyError reports that a session's admission gate rejected a statement:
// the in-flight limit was reached and the wait queue was full. It is a
// back-pressure signal — the caller should retry later or shed load — and is
// recorded in the query log with error class "busy".
type BusyError struct {
	// MaxInFlight is the session's concurrent-statement limit.
	MaxInFlight int
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("provider: session is busy (%d statements in flight and the wait queue is full); retry later", e.MaxInFlight)
}

// IsBusy reports whether err is an admission-control rejection.
func IsBusy(err error) bool {
	var be *BusyError
	return errors.As(err, &be)
}

// Session is one consumer's handle onto the provider — the session object of
// the OLE DB model, where commands execute in the context of the session that
// created them. Sessions are cheap to create (one per connection, tool, or
// actor) and independent: prepared-statement names are scoped to the session
// that PREPAREd them, the session's origin label flows into the query log,
// and admission control bounds how many statements the session may have in
// flight at once. All execution methods are context-first; cancellation
// aborts the statement.
//
// A Session serializes nothing by itself: concurrent Execute calls on one
// session (or many) proceed in parallel against the provider's immutable
// catalog snapshots.
type Session struct {
	p      *Provider
	origin string
	adm    *admission

	// inFlight counts statements currently executing past the admission
	// gate, surfaced per connection as DM_CONNECTIONS.ADMISSION_INFLIGHT.
	inFlight atomic.Int64

	// mu guards the session-scoped prepared-statement registry and the
	// closed flag; execution itself never holds it.
	//
	//dmlint:guard mu: Session.prepared, Session.closed, preparedStmt.plan
	mu       sync.Mutex
	closed   bool
	prepared map[string]*preparedStmt // keyed by lower-cased handle name
}

// Origin returns the session's origin label.
func (s *Session) Origin() string { return s.origin }

// InFlight returns the number of statements the session is currently
// executing past admission.
func (s *Session) InFlight() int64 { return s.inFlight.Load() }

// SessionOption configures NewSession.
type SessionOption func(*sessionConfig)

type sessionConfig struct {
	origin      string
	maxInFlight int
}

// WithSessionOrigin labels every statement the session executes (a remote
// address, a tool name) in the query log, unless a per-call WithOrigin
// overrides it.
func WithSessionOrigin(origin string) SessionOption {
	return func(c *sessionConfig) { c.origin = origin }
}

// WithSessionMaxInFlight overrides the provider-level in-flight statement
// limit for this session. n <= 0 means unbounded.
func WithSessionMaxInFlight(n int) SessionOption {
	return func(c *sessionConfig) { c.maxInFlight = n }
}

// NewSession opens a session. The zero configuration inherits the provider's
// origin-less query log labeling and its WithMaxInFlight admission limit.
// Close the session when its connection ends; closing releases its prepared
// statements.
func (p *Provider) NewSession(opts ...SessionOption) *Session {
	cfg := sessionConfig{maxInFlight: p.maxInFlight}
	for _, o := range opts {
		o(&cfg)
	}
	return &Session{
		p:        p,
		origin:   cfg.origin,
		adm:      newAdmission(cfg.maxInFlight, p),
		prepared: make(map[string]*preparedStmt),
	}
}

// Close marks the session closed and drops its prepared statements.
// Statements already in flight finish normally; new calls return
// ErrSessionClosed. Close is idempotent.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.prepared = make(map[string]*preparedStmt)
	return nil
}

func (s *Session) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Execute runs one DMX or SQL statement (standalone SHAPE included) and
// returns its result rowset. It is the primary execution entry point: ctx
// cancellation aborts the statement (checked inside the worker-pool scan
// loops, so a runaway PREDICTION JOIN stops promptly), and every statement is
// timed per stage and recorded in the query log and the provider metrics —
// queryable afterwards as $SYSTEM.DM_QUERY_LOG and
// $SYSTEM.DM_PROVIDER_METRICS.
func (s *Session) Execute(ctx context.Context, command string, opts ...ExecOption) (*rowset.Rowset, error) {
	return s.run(ctx, command, opts, func(ctx context.Context, t *obs.Trace) (*rowset.Rowset, error) {
		return s.executeTracedArgs(ctx, t, command, nil)
	})
}

// ExecuteScript runs a multi-statement script (statements separated by
// semicolons) and returns the last statement's result. Each statement passes
// through Execute, so all of them land in the query log and cancellation is
// honoured between and inside statements.
func (s *Session) ExecuteScript(ctx context.Context, script string, opts ...ExecOption) (*rowset.Rowset, error) {
	stmts, err := splitStatements(script)
	if err != nil {
		return nil, err
	}
	var last *rowset.Rowset
	for _, st := range stmts {
		last, err = s.Execute(ctx, st, opts...)
		if err != nil {
			return nil, err
		}
	}
	return last, nil
}

// ExecuteParams runs one command with positional arguments bound to its
// placeholders — server-side parameters without a named handle (the wire
// protocol's one-shot parameterized execution).
func (s *Session) ExecuteParams(ctx context.Context, command string, args []rowset.Value, opts ...ExecOption) (*rowset.Rowset, error) {
	return s.run(ctx, command, opts, func(ctx context.Context, t *obs.Trace) (*rowset.Rowset, error) {
		return s.executeTracedArgs(ctx, t, command, args)
	})
}

// Prepare compiles command and registers it under name in this session,
// returning the number of parameter placeholders the statement declares. It
// is the API form of PREPARE <name> AS <command> and records a query-log
// entry like any other statement. Handles are session-scoped: the same name
// on two sessions names two independent statements.
func (s *Session) Prepare(ctx context.Context, name, command string, opts ...ExecOption) (int, error) {
	n := 0
	_, err := s.run(ctx, "PREPARE "+name+" AS "+command, opts, func(ctx context.Context, t *obs.Trace) (*rowset.Rowset, error) {
		t.SetClass("PREPARE", nil)
		pl, err := s.p.compile(t, command)
		if err != nil {
			return nil, err
		}
		n = len(pl.params)
		return s.register(name, command, pl)
	})
	return n, err
}

// ExecutePrepared runs the prepared statement name with args bound to its
// placeholders, by position. It is the API form of EXECUTE <name> (...). The
// statement is looked up once, before its trace starts; its query-log text
// was built when it was prepared (a name spelled otherwise gets its own).
func (s *Session) ExecutePrepared(ctx context.Context, name string, args []rowset.Value, opts ...ExecOption) (*rowset.Rowset, error) {
	ps := s.lookupPrepared(name)
	var label string
	if ps != nil && ps.name == name {
		label = ps.label
	} else {
		label = "EXECUTE " + name
	}
	return s.run(ctx, label, opts, func(ctx context.Context, t *obs.Trace) (*rowset.Rowset, error) {
		t.SetClass("EXECUTE", nil)
		return s.runPrepared(ctx, t.StartStage(obs.StageParse), name, ps, args)
	})
}

// Deallocate drops the prepared statement name from this session. Unknown
// names are a no-op, so statement Close paths can call it unconditionally.
func (s *Session) Deallocate(name string) error {
	s.removePrepared(name)
	return nil
}

// run wraps one statement execution with the admission gate plus the trace,
// statement-store, and metrics plumbing shared by every execution entry
// point: one store call records the finished statement and assigns its seq.
// label is what the store records as the statement text. Rejections —
// already-cancelled contexts, a closed session, admission busy — still get a
// query-log record, so the log accounts for every submission.
func (s *Session) run(ctx context.Context, label string, opts []ExecOption, fn func(context.Context, *obs.Trace) (*rowset.Rowset, error)) (*rowset.Rowset, error) {
	p := s.p
	var cfg execConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.origin == "" {
		cfg.origin = s.origin
	}
	var t *obs.Trace
	if p.obs != nil {
		t = obs.NewTrace(label, cfg.origin)
		ctx = obs.WithTrace(ctx, t)
	}
	var rs *rowset.Rowset
	err := ctx.Err()
	if err == nil && s.isClosed() {
		err = ErrSessionClosed
	}
	admitted := false
	if err == nil {
		if err = s.adm.acquire(ctx); err == nil {
			admitted = true
			s.inFlight.Add(1)
			rs, err = fn(ctx, t)
			s.inFlight.Add(-1)
		}
	}
	if admitted {
		s.adm.release()
	}
	if p.obs != nil {
		if rs != nil {
			t.SetRowsOut(int64(rs.Len()))
		}
		rec := t.Finish(errorClass(t, err))
		seq := p.obs.QueryLog().Append(rec)
		if cfg.seqOut != nil {
			*cfg.seqOut = seq
		}
		p.execTotal.Inc()
		p.latency.Observe(rec.Elapsed.Microseconds())
		t.Release()
		if rec.Origin != "" {
			p.stmtsByOrigin.With(rec.Origin).Inc()
		}
		if err != nil {
			p.execErrors.Inc()
			if rec.ErrClass == "cancelled" {
				p.execCancels.Inc()
			}
		} else {
			p.rowsOut.Add(rec.RowsOut)
		}
	}
	return rs, err
}

// admission is a session's statement gate: at most max statements in flight,
// at most max more waiting. The gate exists so one flooding connection
// degrades into typed BusyErrors instead of unbounded goroutine and memory
// growth inside the provider — the queue absorbs bursts, the busy error sheds
// sustained overload.
type admission struct {
	slots chan struct{} // in-flight tokens; buffered to max
	queue chan struct{} // waiting tokens; buffered to max
	max   int

	inFlight   *obs.Gauge
	queueDepth *obs.Gauge
	rejected   *obs.Counter
}

// newAdmission builds a gate for max concurrent statements; max <= 0 means
// unbounded (acquire and release become no-ops). Gauges and counters live on
// the provider registry so $SYSTEM.DM_PROVIDER_METRICS aggregates the gate
// state across sessions.
func newAdmission(max int, p *Provider) *admission {
	if max <= 0 {
		return nil
	}
	return &admission{
		slots:      make(chan struct{}, max),
		queue:      make(chan struct{}, max),
		max:        max,
		inFlight:   p.admInFlight,
		queueDepth: p.admQueueDepth,
		rejected:   p.admRejected,
	}
}

// acquire takes an in-flight slot, waiting in the bounded queue if none is
// free. It returns a *BusyError when the queue is full, and the context
// error if ctx is cancelled while waiting.
func (a *admission) acquire(ctx context.Context) error {
	if a == nil {
		return nil
	}
	select {
	case a.slots <- struct{}{}:
		a.inFlight.Inc()
		return nil
	default:
	}
	select {
	case a.queue <- struct{}{}:
	default:
		a.rejected.Inc()
		return &BusyError{MaxInFlight: a.max}
	}
	a.queueDepth.Inc()
	defer func() {
		<-a.queue
		a.queueDepth.Dec()
	}()
	select {
	case a.slots <- struct{}{}:
		a.inFlight.Inc()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (a *admission) release() {
	if a == nil {
		return
	}
	<-a.slots
	a.inFlight.Dec()
}
