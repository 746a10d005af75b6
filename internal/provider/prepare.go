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
	"repro/internal/lex"
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
	class  *obs.Class            // kind, resolved in the statement store
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
	label   string // "EXECUTE name", the query-log text of ExecutePrepared
	plan    *plan
}

// compile parses command — DMX, SQL, or SHAPE — and compiles it into a plan,
// attributing parse and bind time to t.
func (p *Provider) compile(t *obs.Trace, command string) (*plan, error) {
	pl, stage, err := p.compileFrom(t.StartStage(obs.StageParse), command)
	stage.Stop()
	return pl, err
}

// compileFrom is compile with the parse stage already running on stage: it
// parses, then compiles under the bind stage, and returns the plan with the
// bind stage still running, for the execution that follows to go on from.
func (p *Provider) compileFrom(stage obs.StageTimer, command string) (*plan, obs.StageTimer, error) {
	st, err := dmx.Parse(command, p.IsModel)
	stage = stage.Next(obs.StageBind)
	if err != nil {
		stage.Trace().SetErrClass("parse")
		return nil, stage, err
	}
	pl, err := p.compileStmt(st)
	return pl, stage, err
}

// compileStmt semantic-checks a parsed statement (so PREPARE surfaces name and
// type errors immediately), assigns its parameter slots, infers their types
// from the columns they are compared against, and snapshots the versions of
// the catalog objects it references.
func (p *Provider) compileStmt(st dmx.Statement) (*plan, error) {
	kind := statementKind(st)
	pl := &plan{kind: kind, class: p.obs.QueryLog().Class(kind), stmt: st}
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
		pl.params, pl.deps, err = p.compileMining(st, s.Model, s.Source, &sqlengine.Subquery{Query: s.Select}, s.On)
		pl.cacheable = true
	case *dmx.InsertInto:
		pl.params, pl.deps, err = p.compileMining(st, s.Model, s.Source)
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
		pl.inner, err = p.compileStmt(s.Stmt)
	case *dmx.Prepare:
		pl.inner, err = p.compileStmt(s.Stmt)
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
func (p *Provider) compileMining(st dmx.Statement, model string, src dmx.Source, roots ...sqlengine.Expr) ([]sqlengine.ParamSlot, []plancache.Dep, error) {
	if err := sem.Check(st, p); err != nil {
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

// runPlan labels the trace with the plan's statement class and executes it,
// going on from the stage running on stage (the plan lookup's). EXPLAIN
// ANALYZE calls execute directly, so the trace of the statement it runs keeps
// the EXPLAIN label.
func (s *Session) runPlan(ctx context.Context, stage obs.StageTimer, pl *plan, args []rowset.Value) (*rowset.Rowset, error) {
	stage.Trace().SetClass(pl.kind, pl.class)
	return s.execute(ctx, stage, pl, args)
}

// execute validates and coerces args against the plan's parameter slots and
// binds them into a copy of the statement — the bind stage, which follows
// the stage running on stage on the same clock reading — and dispatches it.
// Plans run without a second semantic check: they were checked at compile
// time, and dependency versioning guarantees the catalog they were checked
// against still stands. Catalog reads resolve against the current immutable
// snapshot, so no dispatch arm takes a lock.
func (s *Session) execute(ctx context.Context, stage obs.StageTimer, pl *plan, args []rowset.Value) (*rowset.Rowset, error) {
	p := s.p
	t := stage.Trace()
	bind := stage.Next(obs.StageBind)
	st, err := bindArgs(pl, args)
	// A SQL statement's execution is its scan stage and a SHAPE's its source
	// stage. A prediction goes on from the bind stage and times the rest
	// itself, as every other statement times its own stages.
	run := bind
	switch st.(type) {
	case *dmx.SQL:
		run = bind.Next(obs.StageScan)
	case *dmx.Shape:
		run = bind.Next(obs.StageSource)
	case *dmx.PredictionSelect:
	default:
		run.Stop()
		run = obs.StageTimer{}
	}
	if err != nil {
		run.Stop()
		return nil, err
	}
	switch st := st.(type) {
	case *dmx.SQL:
		defer run.Stop()
		return p.Engine.ExecStmtContext(ctx, st.Stmt)
	case *dmx.Shape:
		defer run.Stop()
		return st.Query.ExecuteContext(ctx, p.Engine)
	case *dmx.Explain:
		return s.explain(ctx, st, pl.inner)
	case *dmx.CreateModel:
		return p.createModel(st.Def)
	case *dmx.InsertInto:
		return p.insertInto(ctx, st)
	case *dmx.PredictionSelect:
		return p.predictionSelect(ctx, run, st)
	case *dmx.RowsetSelect:
		return p.rowsetSelect(ctx, st)
	case *dmx.DeleteFrom:
		return p.deleteFrom(st.Model)
	case *dmx.DropModel:
		return p.dropModel(st.Name)
	case *dmx.Prepare:
		return s.register(st.Name, st.Command, pl.inner)
	case *dmx.ExecutePrepared:
		stage := t.StartStage(obs.StageParse)
		return s.runPrepared(ctx, stage, st.Name, s.lookupPrepared(st.Name), st.Args)
	case *dmx.Deallocate:
		return s.deallocateRS(st.Name)
	}
	return nil, fmt.Errorf("provider: unsupported statement %T", st)
}

// bindArgs validates and coerces args against the plan's parameter slots and
// binds them into a copy of the plan's statement (the statement itself when
// it takes none).
func bindArgs(pl *plan, args []rowset.Value) (dmx.Statement, error) {
	if len(args) != len(pl.params) {
		return pl.stmt, fmt.Errorf("provider: statement has %d parameter(s), got %d argument(s) (PREPARE/EXECUTE binds them)", len(pl.params), len(args))
	}
	if len(args) == 0 {
		return pl.stmt, nil
	}
	bound := make([]rowset.Value, len(args))
	for i, a := range args {
		v := rowset.Normalize(a)
		if typ := pl.params[i].Type; typ != rowset.TypeNull && v != nil {
			cv, err := rowset.Coerce(v, typ)
			if err != nil {
				return pl.stmt, fmt.Errorf("provider: parameter %s: %w", pl.params[i].Label(i), err)
			}
			v = cv
		}
		bound[i] = v
	}
	return bindParams(pl.stmt, bound)
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
		s.prepared[key] = &preparedStmt{name: name, command: command, label: "EXECUTE " + name, plan: pl}
	}
	s.mu.Unlock()
	if dup {
		return nil, fmt.Errorf("provider: prepared statement %q already exists", name)
	}
	s.p.preparedTotal.Inc()
	return status("statement prepared")
}

// lookupPrepared returns this session's prepared statement name, or nil.
func (s *Session) lookupPrepared(name string) *preparedStmt {
	s.mu.Lock()
	defer s.mu.Unlock()
	ps, _ := lex.LookupFold(s.prepared, name)
	return ps
}

// runPrepared executes ps, the prepared statement name (nil: the session has
// none), going on from the parse stage running on stage: finding the plan is
// the parse stage of a prepared statement. A plan any referenced catalog
// object changed under since compilation is replanned first — a plan bound to
// a dropped or re-created schema never executes.
func (s *Session) runPrepared(ctx context.Context, stage obs.StageTimer, name string, ps *preparedStmt, args []rowset.Value) (*rowset.Rowset, error) {
	p := s.p
	if ps == nil {
		stage.Stop()
		return nil, &core.NotFoundError{Kind: "prepared statement", Name: name}
	}
	s.mu.Lock()
	pl := ps.plan
	s.mu.Unlock()
	if p.planStale(pl) {
		p.preparedReplans.Inc()
		fresh, next, err := p.compileFrom(stage, ps.command)
		if stage = next; err != nil {
			stage.Stop()
			return nil, fmt.Errorf("provider: prepared statement %q is stale (a referenced object changed) and failed to replan: %w", name, err)
		}
		s.mu.Lock()
		ps.plan = fresh
		s.mu.Unlock()
		pl = fresh
	}
	p.preparedExec.Inc()
	return s.runPlan(ctx, stage, pl, args)
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
