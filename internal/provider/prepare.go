package provider

// Prepared statements and the plan cache. Every command compiles into a
// *plan: the parsed statement plus its parameter slots and the catalog
// objects it references at their current versions. Plannable statements (SQL
// SELECT/DML, SHAPE, DMX prediction and browsing selects, INSERT INTO a
// model) are cached. Plans are immutable once built — parameter binding
// clones the AST — so one plan can serve concurrent executions out of the LRU
// cache or a PREPARE handle.
// DROP/CREATE of any referenced model, table, or view bumps that name's
// version, which invalidates cached plans on lookup and makes prepared
// statements replan (or fail with the new schema's real error) instead of
// executing against a stale view of the catalog.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/dmx"
	"repro/internal/dmx/sem"
	"repro/internal/obs"
	"repro/internal/plancache"
	"repro/internal/rowset"
	"repro/internal/shape"
	"repro/internal/sqlengine"
)

// plan is one compiled statement. A plan is immutable after compilation: the
// plan cache hands the same *plan to concurrent executions, so any
// post-construction write is a data race. Enforced by the planimmut analyzer.
//
//dmlint:immutable
type plan struct {
	kind   string                // statement class for traces and the query log
	stmt   dmx.Statement         // the parsed statement
	inner  *plan                 // the compiled statement an EXPLAIN or a PREPARE wraps
	params []sqlengine.ParamSlot // placeholder slots, in argument order
	deps   []plancache.Dep       // referenced catalog objects at compile versions
	// cacheable marks plans worth keeping: statements that re-execute
	// meaningfully (queries, DML, SHAPE, model population). DDL and control
	// statements compile but are never cached.
	cacheable bool
}

// preparedStmt is one PREPARE handle, owned by the session that PREPAREd it.
// The plan pointer is swapped under Session.mu when a stale plan is
// recompiled.
type preparedStmt struct {
	name    string
	command string
	plan    *plan
}

// compile parses command — DMX, SQL, or SHAPE — and compiles it into a plan,
// attributing parse and bind time to t.
func (p *Provider) compile(t *obs.Trace, command string) (*plan, error) {
	stopParse := t.StartStage(obs.StageParse)
	st, err := dmx.Parse(command, p.IsModel)
	stopParse()
	if err != nil {
		t.SetErrClass("parse")
		return nil, err
	}
	return p.compileStmt(t, st)
}

// compileStmt semantic-checks a parsed statement (so PREPARE surfaces name and
// type errors immediately), assigns its parameter slots, infers their types
// from the columns they are compared against, and snapshots the versions of
// the catalog objects it references.
func (p *Provider) compileStmt(t *obs.Trace, st dmx.Statement) (*plan, error) {
	pl := &plan{kind: statementKind(st), stmt: st}
	deps := func(names ...string) []plancache.Dep { return p.versions.Snapshot(names) }
	var err error
	switch s := st.(type) {
	case *dmx.SQL:
		switch s.Stmt.(type) {
		case *sqlengine.SelectStmt, *sqlengine.InsertStmt, *sqlengine.DeleteStmt, *sqlengine.UpdateStmt:
		default:
			// DDL compiles (so it can be prepared and re-run) but is never
			// cached and takes no parameters.
			if len(sqlengine.CollectParams(s.Stmt)) > 0 {
				return nil, fmt.Errorf("provider: parameters are not supported in DDL statements")
			}
			return pl, nil
		}
		if pl.params, err = sqlengine.AssignParams(s.Stmt); err != nil {
			return nil, err
		}
		tables := sqlengine.ReferencedTables(s.Stmt)
		sqlengine.InferParamTypes(s.Stmt, pl.params, p.columnTypeResolver(tables))
		pl.deps, pl.cacheable = deps(tables...), true
	case *dmx.Shape:
		var tables []string
		tables, err = shapeTables(s.Query)
		pl.deps, pl.cacheable = deps(tables...), true
	case *dmx.PredictionSelect:
		pl.params, pl.deps, err = p.compileMining(t, st, s.Model, s.Source, &sqlengine.Subquery{Query: s.Select}, s.On)
		pl.cacheable = true
	case *dmx.InsertInto:
		pl.params, pl.deps, err = p.compileMining(t, st, s.Model, s.Source)
		pl.cacheable = true
	case *dmx.RowsetSelect:
		if pl.params, err = sqlengine.AssignParams(s.Select); err != nil {
			return nil, err
		}
		pl.cacheable = true
		if s.Model != "" {
			pl.deps = deps(s.Model)
		}
	case *dmx.Explain:
		pl.inner, err = p.compileStmt(t, s.Stmt)
	case *dmx.Prepare:
		pl.inner, err = p.compileStmt(t, s.Stmt)
	default:
		// Model DDL, DELETE FROM, EXECUTE and DEALLOCATE compile but are not
		// cached and take no parameters.
	}
	if err != nil {
		return nil, err
	}
	return pl, nil
}

// compileMining compiles a statement that reads a source into a model:
// it semantic-checks st, then collects placeholder slots from the given
// expression roots plus the source's SELECT (wrapped as a subquery so
// statement-wide collection sees it), inferring types from the source tables.
// It returns the slots and the model and the source tables at their current
// versions; a SHAPE source takes no parameters.
func (p *Provider) compileMining(t *obs.Trace, st dmx.Statement, model string, src dmx.Source, roots ...sqlengine.Expr) ([]sqlengine.ParamSlot, []plancache.Dep, error) {
	stopBind := t.StartStage(obs.StageBind)
	err := sem.Check(st, p)
	stopBind()
	if err != nil {
		return nil, nil, err
	}
	tables, err := shapeTables(src.Shape)
	if err != nil {
		return nil, nil, err
	}
	if src.Select != nil {
		roots = append(roots, &sqlengine.Subquery{Query: src.Select})
		tables = sqlengine.ReferencedTables(src.Select)
	}
	var ps []*sqlengine.Param
	sqlengine.WalkExprParams(roots, func(pp *sqlengine.Param) { ps = append(ps, pp) })
	slots, err := sqlengine.AssignOrdinals(ps)
	if err != nil {
		return nil, nil, err
	}
	if src.Select != nil && len(slots) > 0 {
		sqlengine.InferParamTypes(src.Select, slots, p.columnTypeResolver(tables))
	}
	return slots, p.versions.Snapshot(append(tables, model)), nil
}

// columnTypeResolver resolves a column reference to its declared type by
// bare-name lookup across the given tables — best-effort input to parameter
// type inference.
func (p *Provider) columnTypeResolver(tables []string) func(*sqlengine.ColumnRef) (rowset.Type, bool) {
	return func(cr *sqlengine.ColumnRef) (rowset.Type, bool) {
		for _, name := range tables {
			tbl, err := p.DB.Table(name)
			if err != nil {
				continue
			}
			if ord, ok := tbl.Schema().Lookup(cr.Name); ok {
				return tbl.Schema().Column(ord).Type, true
			}
		}
		return rowset.TypeNull, false
	}
}

// shapeTables walks a SHAPE tree's SELECTs (none for a nil tree) and lists the
// tables they read, lower-cased. A placeholder in any of them is an error: a
// SHAPE takes no parameters.
func shapeTables(q *shape.Query) ([]string, error) {
	if q == nil {
		return nil, nil
	}
	if len(sqlengine.CollectParams(q.Root)) > 0 {
		return nil, errors.New("provider: parameters are not supported inside SHAPE statements")
	}
	tables := sqlengine.ReferencedTables(q.Root)
	for _, a := range q.Appends {
		child, err := shapeTables(a.Child)
		if err != nil {
			return nil, err
		}
		tables = append(tables, child...)
	}
	return tables, nil
}

// ---------- execution ----------

// runPlan labels the trace with the plan's statement class and executes it.
// EXPLAIN ANALYZE calls execute directly, so the trace of the statement it
// runs keeps the EXPLAIN label.
func (s *Session) runPlan(ctx context.Context, t *obs.Trace, pl *plan, args []rowset.Value) (*rowset.Rowset, error) {
	t.SetKind(pl.kind)
	return s.execute(ctx, pl, args)
}

// execute validates and coerces args against the plan's parameter slots,
// binds them into a copy of the statement, and dispatches it. Plans run
// without a second semantic check: they were checked at compile time, and
// dependency versioning guarantees the catalog they were checked against
// still stands. Catalog reads resolve against the current immutable snapshot,
// so no dispatch arm takes a lock.
func (s *Session) execute(ctx context.Context, pl *plan, args []rowset.Value) (*rowset.Rowset, error) {
	p := s.p
	t := obs.FromContext(ctx)
	if len(args) != len(pl.params) {
		return nil, fmt.Errorf("provider: statement has %d parameter(s), got %d argument(s) (PREPARE/EXECUTE binds them)", len(pl.params), len(args))
	}
	st := pl.stmt
	if len(args) > 0 {
		bound := make([]rowset.Value, len(args))
		for i, a := range args {
			v := rowset.Normalize(a)
			if typ := pl.params[i].Type; typ != rowset.TypeNull && v != nil {
				cv, err := rowset.Coerce(v, typ)
				if err != nil {
					return nil, fmt.Errorf("provider: parameter %s: %w", pl.params[i].Label(i), err)
				}
				v = cv
			}
			bound[i] = v
		}
		var err error
		if st, err = bindParams(st, bound); err != nil {
			return nil, err
		}
	}
	switch st := st.(type) {
	case *dmx.SQL:
		defer t.StartStage(obs.StageScan)()
		return p.Engine.ExecStmtContext(ctx, st.Stmt)
	case *dmx.Shape:
		defer t.StartStage(obs.StageSource)()
		return st.Query.ExecuteContext(ctx, p.Engine)
	case *dmx.Explain:
		return s.explain(ctx, st, pl.inner)
	case *dmx.CreateModel:
		return p.createModel(st.Def)
	case *dmx.InsertInto:
		return p.insertInto(ctx, st)
	case *dmx.PredictionSelect:
		return p.predictionSelect(ctx, st)
	case *dmx.RowsetSelect:
		return p.rowsetSelect(ctx, st)
	case *dmx.DeleteFrom:
		return p.deleteFrom(st.Model)
	case *dmx.DropModel:
		return p.dropModel(st.Name)
	case *dmx.Prepare:
		return s.register(st.Name, st.Command, pl.inner)
	case *dmx.ExecutePrepared:
		return s.runPrepared(ctx, t, st.Name, st.Args)
	case *dmx.Deallocate:
		return s.deallocateRS(st.Name)
	}
	return nil, fmt.Errorf("provider: unsupported statement %T", st)
}

// bindParams binds parameter values into a statement's SQL parts — a SQL
// statement, or a DMX statement's SELECT, ON clause and source SELECT —
// copying only the paths to placeholders. st itself is never written: it is
// shared, immutable plan state.
func bindParams(st dmx.Statement, args []rowset.Value) (dmx.Statement, error) {
	switch s := st.(type) {
	case *dmx.SQL:
		bound, err := sqlengine.Bind(s.Stmt, args)
		return &dmx.SQL{Stmt: bound}, err
	case *dmx.PredictionSelect:
		out := *s
		var errSel, errOn, errSrc error
		out.Select, errSel = sqlengine.Bind(s.Select, args)
		out.On, errOn = sqlengine.Bind(s.On, args)
		out.Source.Select, errSrc = sqlengine.Bind(s.Source.Select, args)
		return &out, errors.Join(errSel, errOn, errSrc)
	case *dmx.RowsetSelect:
		out := *s
		var err error
		out.Select, err = sqlengine.Bind(s.Select, args)
		return &out, err
	case *dmx.InsertInto:
		out := *s
		var err error
		out.Source.Select, err = sqlengine.Bind(s.Source.Select, args)
		return &out, err
	}
	return st, nil
}

// planStale reports whether any dependency moved since the plan compiled.
func (p *Provider) planStale(pl *plan) bool {
	for _, d := range pl.deps {
		if p.versions.Get(d.Name) != d.Version {
			return true
		}
	}
	return false
}

// ---------- PREPARE / EXECUTE / DEALLOCATE ----------

// register adds a compiled statement under name to this session. Names are
// session-scoped — the same handle name on two sessions never collides.
// Duplicate names within a session are an error: silently replacing a handle a
// concurrent statement on this session is executing would be a trap
// (DEALLOCATE first, or pick a fresh name).
func (s *Session) register(name, command string, pl *plan) (*rowset.Rowset, error) {
	key := strings.ToLower(name)
	s.mu.Lock()
	_, dup := s.prepared[key]
	if !dup {
		s.prepared[key] = &preparedStmt{name: name, command: command, plan: pl}
	}
	s.mu.Unlock()
	if dup {
		return nil, fmt.Errorf("provider: prepared statement %q already exists", name)
	}
	s.p.preparedTotal.Inc()
	return status("statement prepared")
}

// runPrepared executes a prepared statement, replanning first when any
// referenced catalog object changed since compilation — a plan bound to a
// dropped or re-created schema never executes.
func (s *Session) runPrepared(ctx context.Context, t *obs.Trace, name string, args []rowset.Value) (*rowset.Rowset, error) {
	p := s.p
	key := strings.ToLower(name)
	s.mu.Lock()
	ps, ok := s.prepared[key]
	var pl *plan
	if ok {
		pl = ps.plan
	}
	s.mu.Unlock()
	if !ok {
		return nil, &core.NotFoundError{Kind: "prepared statement", Name: name}
	}
	if p.planStale(pl) {
		p.preparedReplans.Inc()
		fresh, err := p.compile(t, ps.command)
		if err != nil {
			return nil, fmt.Errorf("provider: prepared statement %q is stale (a referenced object changed) and failed to replan: %w", name, err)
		}
		s.mu.Lock()
		ps.plan = fresh
		s.mu.Unlock()
		pl = fresh
	}
	p.preparedExec.Inc()
	return s.runPlan(ctx, t, pl, args)
}

// removePrepared drops a handle from this session, reporting whether it
// existed.
func (s *Session) removePrepared(name string) bool {
	key := strings.ToLower(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.prepared[key]; !ok {
		return false
	}
	delete(s.prepared, key)
	return true
}

// deallocateRS is the DEALLOCATE statement body: unknown names are an error
// at the statement surface (the Deallocate method is the idempotent form).
func (s *Session) deallocateRS(name string) (*rowset.Rowset, error) {
	if !s.removePrepared(name) {
		return nil, &core.NotFoundError{Kind: "prepared statement", Name: name}
	}
	return status("statement deallocated")
}

// PreparedNames lists the session's registered prepared statements, sorted
// ascending (primarily for tests and diagnostics).
func (s *Session) PreparedNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.prepared))
	for _, ps := range s.prepared {
		names = append(names, ps.name)
	}
	sort.Strings(names)
	return names
}
