// Package dmdriver exposes the OLE DB DM provider through database/sql —
// Go's native counterpart of the OLE DB data-access API the paper builds on.
// The paper's goal is that "data mining models and operations gain the
// status of first-class objects in the mainstream database development
// environment"; for a Go developer that environment is database/sql:
//
//	db, _ := sql.Open("oledbdm", "memory:myapp")
//	db.Exec(`CREATE MINING MODEL ...`)
//	db.Exec(`INSERT INTO [Age Prediction] ... SHAPE {...} ...`)
//	rows, _ := db.Query(`SELECT Predict([Age]) FROM [Age Prediction] ...`)
//
// DSN forms:
//
//	memory:<name>  — shared in-memory provider instance named <name>
//	file:<dir>     — provider persisted under directory <dir>
//	registered:<n> — provider previously installed with RegisterProvider
//
// Connections to the same DSN share one provider instance, the way
// connections to one database share its state. Statements support '?'
// placeholders, bound server-side through the provider's prepared-statement
// machinery: argument values never pass through command text, so strings
// containing quotes (or whole statements) cannot change the statement's
// shape. db.Prepare maps onto a provider PREPARE handle, so repeated
// executions reuse one compiled plan.
package dmdriver

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/provider"
	"repro/internal/rowset"
)

// DriverName is the name registered with database/sql.
const DriverName = "oledbdm"

func init() {
	sql.Register(DriverName, &Driver{})
}

// Driver implements driver.Driver.
type Driver struct{}

var (
	providersMu sync.Mutex
	providers   = make(map[string]*provider.Provider)
	// stmtSeq numbers driver-issued PREPARE handles; the names are scoped to
	// the shared provider instance, so a process-wide counter keeps
	// statements from different sql.DB handles distinct.
	stmtSeq atomic.Uint64
)

// RegisterProvider installs an existing provider instance under
// "registered:<name>"; used to share a provider between direct API access
// and database/sql access.
func RegisterProvider(name string, p *provider.Provider) {
	providersMu.Lock()
	defer providersMu.Unlock()
	providers["registered:"+name] = p
}

func providerFor(dsn string) (*provider.Provider, error) {
	providersMu.Lock()
	defer providersMu.Unlock()
	if p, ok := providers[dsn]; ok {
		return p, nil
	}
	switch {
	case strings.HasPrefix(dsn, "memory:") || dsn == "memory" || dsn == "":
		p, err := provider.New()
		if err != nil {
			return nil, err
		}
		providers[dsn] = p
		return p, nil
	case strings.HasPrefix(dsn, "file:"):
		p, err := provider.New(provider.WithDirectory(strings.TrimPrefix(dsn, "file:")))
		if err != nil {
			return nil, err
		}
		providers[dsn] = p
		return p, nil
	case strings.HasPrefix(dsn, "registered:"):
		return nil, fmt.Errorf("dmdriver: no provider registered as %q", dsn)
	}
	return nil, fmt.Errorf("dmdriver: bad DSN %q (want memory:<name>, file:<dir>, or registered:<name>)", dsn)
}

// Open implements driver.Driver.
func (*Driver) Open(dsn string) (driver.Conn, error) {
	p, err := providerFor(dsn)
	if err != nil {
		return nil, err
	}
	return &conn{s: p.NewSession(provider.WithSessionOrigin("database/sql"))}, nil
}

// conn implements driver.Conn, driver.QueryerContext and driver.ExecerContext
// over its own provider session: statement handles are scoped to the
// connection and released with it.
type conn struct {
	s      *provider.Session
	closed bool
}

// Prepare implements driver.Conn: the statement compiles into a provider
// PREPARE handle immediately, so placeholder arity and type errors surface
// here rather than on first execution, and every Exec/Query on the handle
// reuses the compiled plan.
func (c *conn) Prepare(query string) (driver.Stmt, error) {
	return c.PrepareContext(context.Background(), query) //dmlint:allow ctxflow — database/sql's driver.Conn interface has no context form; the stdlib calls PrepareContext when available.
}

// PrepareContext implements driver.ConnPrepareContext.
func (c *conn) PrepareContext(ctx context.Context, query string) (driver.Stmt, error) {
	if c.closed {
		return nil, driver.ErrBadConn
	}
	name := fmt.Sprintf("go_stmt_%d", stmtSeq.Add(1))
	n, err := c.s.Prepare(ctx, name, query)
	if err != nil {
		return nil, err
	}
	return &stmt{c: c, name: name, numInput: n}, nil
}

// Close implements driver.Conn.
func (c *conn) Close() error {
	c.closed = true
	return c.s.Close()
}

// Begin implements driver.Conn. The provider has no transactions; Begin
// returns a no-op transaction so sql.DB retry logic stays happy.
func (c *conn) Begin() (driver.Tx, error) {
	return noopTx{}, nil
}

type noopTx struct{}

func (noopTx) Commit() error   { return nil }
func (noopTx) Rollback() error { return nil }

// QueryContext implements driver.QueryerContext. The context is honoured:
// cancelling it aborts the statement inside the provider's scan loops.
// Arguments bind server-side by position.
func (c *conn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	rs, err := c.execute(ctx, query, args)
	if err != nil {
		return nil, err
	}
	return newRows(rs), nil
}

// ExecContext implements driver.ExecerContext. The context is honoured the
// same way as in QueryContext.
func (c *conn) ExecContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	rs, err := c.execute(ctx, query, args)
	if err != nil {
		return nil, err
	}
	return result{rs: rs}, nil
}

func (c *conn) execute(ctx context.Context, query string, args []driver.NamedValue) (*rowset.Rowset, error) {
	if c.closed {
		return nil, driver.ErrBadConn
	}
	if len(args) == 0 {
		return c.s.Execute(ctx, query)
	}
	vals, err := argValues(args)
	if err != nil {
		return nil, err
	}
	return c.s.ExecuteParams(ctx, query, vals)
}

// argValues converts driver arguments to provider values. Arguments must be
// positional: the provider assigns '@name' placeholders ordinals by first
// occurrence, so there is no name-addressed binding surface to map
// sql.Named onto.
func argValues(args []driver.NamedValue) ([]rowset.Value, error) {
	vals := make([]rowset.Value, len(args))
	for i, a := range args {
		if a.Name != "" {
			return nil, fmt.Errorf("dmdriver: named argument %q is not supported; bind positionally", a.Name)
		}
		if b, ok := a.Value.([]byte); ok {
			vals[i] = string(b)
			continue
		}
		vals[i] = a.Value
	}
	return vals, nil
}

// stmt implements driver.Stmt over a provider PREPARE handle.
type stmt struct {
	c        *conn
	name     string
	numInput int
	closed   bool
}

// Close implements driver.Stmt, releasing the provider-side handle.
// Deallocation is idempotent, so a handle that was already dropped (for
// example by a DEALLOCATE statement on this connection) does not error here.
func (s *stmt) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	return s.c.s.Deallocate(s.name)
}

func (s *stmt) NumInput() int { return s.numInput }

func (s *stmt) Exec(args []driver.Value) (driver.Result, error) {
	return s.ExecContext(context.Background(), named(args)) //dmlint:allow ctxflow — driver.Stmt interface method; the stdlib prefers StmtExecContext and falls back here only for legacy callers.
}

func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	return s.QueryContext(context.Background(), named(args)) //dmlint:allow ctxflow — driver.Stmt interface method; the stdlib prefers StmtQueryContext and falls back here only for legacy callers.
}

// ExecContext implements driver.StmtExecContext.
func (s *stmt) ExecContext(ctx context.Context, args []driver.NamedValue) (driver.Result, error) {
	rs, err := s.run(ctx, args)
	if err != nil {
		return nil, err
	}
	return result{rs: rs}, nil
}

// QueryContext implements driver.StmtQueryContext.
func (s *stmt) QueryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	rs, err := s.run(ctx, args)
	if err != nil {
		return nil, err
	}
	return newRows(rs), nil
}

func (s *stmt) run(ctx context.Context, args []driver.NamedValue) (*rowset.Rowset, error) {
	if s.closed || s.c.closed {
		return nil, driver.ErrBadConn
	}
	vals, err := argValues(args)
	if err != nil {
		return nil, err
	}
	return s.c.s.ExecutePrepared(ctx, s.name, vals)
}

func named(args []driver.Value) []driver.NamedValue {
	out := make([]driver.NamedValue, len(args))
	for i, a := range args {
		out[i] = driver.NamedValue{Ordinal: i + 1, Value: a}
	}
	return out
}

// result implements driver.Result over a status rowset.
type result struct {
	rs *rowset.Rowset
}

// LastInsertId implements driver.Result; the provider has no row IDs.
func (result) LastInsertId() (int64, error) {
	return 0, fmt.Errorf("dmdriver: LastInsertId is not supported")
}

// RowsAffected reports the single numeric cell of DML status results
// ("rows affected", "cases consumed"), or 0 for other statements.
func (r result) RowsAffected() (int64, error) {
	if r.rs != nil && r.rs.Len() == 1 && r.rs.Schema().Len() == 1 {
		if n, ok := r.rs.Row(0)[0].(int64); ok {
			return n, nil
		}
	}
	return 0, nil
}

// rows implements driver.Rows.
type rows struct {
	rs  *rowset.Rowset
	pos int
}

func newRows(rs *rowset.Rowset) *rows { return &rows{rs: rs} }

func (r *rows) Columns() []string { return r.rs.Schema().Names() }
func (r *rows) Close() error      { return nil }

func (r *rows) Next(dest []driver.Value) error {
	if r.pos >= r.rs.Len() {
		return io.EOF
	}
	row := r.rs.Row(r.pos)
	r.pos++
	for i, v := range row {
		switch x := v.(type) {
		case nil, int64, float64, bool, string:
			dest[i] = x
		case time.Time:
			dest[i] = x
		case *rowset.Rowset:
			// Nested tables flatten to their compact text rendering;
			// database/sql has no nested result concept.
			dest[i] = rowset.FormatNested(x)
		default:
			dest[i] = rowset.FormatValue(v)
		}
	}
	return nil
}
