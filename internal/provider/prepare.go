package provider

// Prepared statements and the plan cache. Every plannable statement (SQL
// SELECT/DML, DMX prediction and browsing selects, INSERT INTO a model)
// compiles into a *plan: the parsed AST plus its parameter slots and the
// catalog objects it references at their current versions. Plans are
// immutable once built — parameter binding clones the AST — so one plan can
// serve concurrent executions out of the LRU cache or a PREPARE handle.
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

// plan is one compiled statement. Exactly one of dmxStmt, sqlStmt, or
// shapeCmd is set. A plan is immutable after compilation: the plan cache
// hands the same *plan to concurrent executions, so any post-construction
// write is a data race. Enforced by the planimmut analyzer.
//
//dmlint:immutable
type plan struct {
	kind     string                // statement class for traces and the query log
	dmxStmt  dmx.Statement         // parsed DMX statement
	sqlStmt  sqlengine.Statement   // parsed SQL statement
	shapeCmd string                // raw standalone SHAPE command
	params   []sqlengine.ParamSlot // placeholder slots, in argument order
	deps     []plancache.Dep       // referenced catalog objects at compile versions
	// cacheable marks plans worth keeping: statements that re-execute
	// meaningfully (queries, DML, model population). DDL and control
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

// compileCommand parses and compiles one command — DMX, SQL, or SHAPE — into
// a plan, attributing parse and bind time to t.
func (p *Provider) compileCommand(ctx context.Context, t *obs.Trace, command string) (*plan, error) {
	if sc := lex.NewScanner(command); sc.Peek().Is("SHAPE") {
		if commandHasParams(command) {
			return nil, fmt.Errorf("provider: parameters are not supported inside SHAPE statements")
		}
		return &plan{kind: "SHAPE", shapeCmd: command}, nil
	}
	stopParse := t.StartStage(obs.StageParse)
	st, err := dmx.Parse(command, p.IsModel)
	stopParse()
	if err != nil {
		t.SetErrClass("parse")
		return nil, err
	}
	if st == nil {
		stopParse = t.StartStage(obs.StageParse)
		sqlSt, err := sqlengine.Parse(command)
		stopParse()
		if err != nil {
			t.SetErrClass("parse")
			return nil, err
		}
		return p.compileSQL(sqlSt)
	}
	return p.compileDMX(ctx, t, st)
}

// compileSQL assigns parameter slots, infers their types from the columns
// they are compared against, and snapshots the referenced tables' versions.
func (p *Provider) compileSQL(st sqlengine.Statement) (*plan, error) {
	pl := &plan{kind: "SQL", sqlStmt: st}
	switch st.(type) {
	case *sqlengine.SelectStmt, *sqlengine.InsertStmt, *sqlengine.DeleteStmt, *sqlengine.UpdateStmt:
		pl.cacheable = true
	default:
		// DDL compiles (so it can be prepared and re-run) but is never cached
		// and takes no parameters.
		if len(sqlengine.CollectParams(st)) > 0 {
			return nil, fmt.Errorf("provider: parameters are not supported in DDL statements")
		}
		return pl, nil
	}
	slots, err := sqlengine.AssignParams(st)
	if err != nil {
		return nil, err
	}
	tables := sqlengine.ReferencedTables(st)
	sqlengine.InferParamTypes(st, slots, p.columnTypeResolver(tables))
	pl.params = slots
	pl.deps = p.versions.Snapshot(tables)
	return pl, nil
}

// compileDMX semantic-checks the statement (so PREPARE surfaces name and
// type errors immediately), assigns parameter slots where DMX admits
// placeholders, and snapshots dependency versions.
func (p *Provider) compileDMX(ctx context.Context, t *obs.Trace, st dmx.Statement) (*plan, error) {
	_ = ctx
	pl := &plan{kind: statementKind(st), dmxStmt: st}
	stopBind := t.StartStage(obs.StageBind)
	err := sem.Check(st, p)
	stopBind()
	if err != nil {
		return nil, err
	}
	deps := func(names ...string) []plancache.Dep { return p.versions.Snapshot(names) }
	switch s := st.(type) {
	case *dmx.PredictionSelect:
		if s.Source.Shape != nil && shapeHasParams(s.Source.Shape) {
			return nil, fmt.Errorf("provider: parameters are not supported inside SHAPE sources")
		}
		slots, tables, err := p.dmxParams([]sqlengine.Expr{&sqlengine.Subquery{Query: s.Select}, s.On}, s.Source.Select)
		if err != nil {
			return nil, err
		}
		pl.params = slots
		pl.deps = deps(append([]string{s.Model}, append(tables, shapeTables(s.Source.Shape)...)...)...)
		pl.cacheable = true
	case *dmx.InsertInto:
		if s.Source.Shape != nil && shapeHasParams(s.Source.Shape) {
			return nil, fmt.Errorf("provider: parameters are not supported inside SHAPE sources")
		}
		slots, tables, err := p.dmxParams(nil, s.Source.Select)
		if err != nil {
			return nil, err
		}
		pl.params = slots
		pl.deps = deps(append([]string{s.Model}, append(tables, shapeTables(s.Source.Shape)...)...)...)
		pl.cacheable = true
	case *dmx.RowsetSelect:
		slots, err := sqlengine.AssignParams(s.Select)
		if err != nil {
			return nil, err
		}
		pl.params, pl.cacheable = slots, true
		if s.Model != "" {
			pl.deps = deps(s.Model)
		}
	default:
		// EXPLAIN, model DDL, DELETE FROM, and control statements compile but
		// are not cached and take no parameters.
	}
	return pl, nil
}

// dmxParams collects placeholder slots from the given expression roots plus
// an optional embedded source SELECT (wrapped as a subquery so statement-wide
// collection sees it), inferring types from the source tables. It returns the
// slots and the tables the source references.
func (p *Provider) dmxParams(roots []sqlengine.Expr, src *sqlengine.SelectStmt) ([]sqlengine.ParamSlot, []string, error) {
	var tables []string
	if src != nil {
		roots = append(roots, &sqlengine.Subquery{Query: src})
		tables = sqlengine.ReferencedTables(src)
	}
	var ps []*sqlengine.Param
	sqlengine.WalkExprParams(roots, func(pp *sqlengine.Param) { ps = append(ps, pp) })
	slots, err := sqlengine.AssignOrdinals(ps)
	if err != nil {
		return nil, nil, err
	}
	if src != nil && len(slots) > 0 {
		sqlengine.InferParamTypes(src, slots, p.columnTypeResolver(tables))
	}
	return slots, tables, nil
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

// shapeTables lists the tables a SHAPE query tree references (lower-cased).
func shapeTables(q *shape.Query) []string {
	var out []string
	var walk func(q *shape.Query)
	walk = func(q *shape.Query) {
		if q == nil {
			return
		}
		if q.Root != nil {
			out = append(out, sqlengine.ReferencedTables(q.Root)...)
		}
		for _, a := range q.Appends {
			walk(a.Child)
		}
	}
	walk(q)
	return out
}

// shapeHasParams reports whether any SELECT inside a SHAPE query tree
// contains a parameter placeholder.
func shapeHasParams(q *shape.Query) bool {
	if q == nil {
		return false
	}
	if q.Root != nil && len(sqlengine.CollectParams(q.Root)) > 0 {
		return true
	}
	for _, a := range q.Appends {
		if shapeHasParams(a.Child) {
			return true
		}
	}
	return false
}

// commandHasParams scans raw command text for '?' or '@name' placeholder
// tokens (quoted strings and bracketed identifiers are skipped by the lexer).
func commandHasParams(command string) bool {
	toks, err := lex.Tokenize(command)
	if err != nil {
		return false
	}
	for _, t := range toks {
		if t.Kind == lex.Punct && t.Text == "?" {
			return true
		}
		if t.Kind == lex.Ident && !t.Quoted && len(t.Text) > 1 && strings.HasPrefix(t.Text, "@") {
			return true
		}
	}
	return false
}

// ---------- execution ----------

// runPlan validates and coerces arguments against the plan's parameter
// slots, binds them into a cloned AST, and dispatches. hasArgs distinguishes
// "EXECUTE p ()" (zero arguments supplied) from plain execution of a
// parameterized statement, which is an error.
func (s *Session) runPlan(ctx context.Context, t *obs.Trace, pl *plan, args []rowset.Value, hasArgs bool) (*rowset.Rowset, error) {
	p := s.p
	if len(pl.params) > 0 && !hasArgs {
		return nil, fmt.Errorf("provider: statement has %d parameter(s); use PREPARE/EXECUTE to bind them", len(pl.params))
	}
	if len(args) > 0 && len(pl.params) == 0 {
		return nil, fmt.Errorf("provider: statement has no parameters but %d argument(s) were supplied", len(args))
	}
	var bound []rowset.Value
	if len(pl.params) > 0 {
		if len(args) != len(pl.params) {
			return nil, fmt.Errorf("provider: statement has %d parameter(s), got %d argument(s)", len(pl.params), len(args))
		}
		bound = make([]rowset.Value, len(args))
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
	}
	switch {
	case pl.shapeCmd != "":
		t.SetKind("SHAPE")
		defer t.StartStage(obs.StageSource)()
		return shape.ExecuteStringContext(ctx, p.Engine, pl.shapeCmd)
	case pl.sqlStmt != nil:
		st := pl.sqlStmt
		if len(pl.params) > 0 {
			var err error
			if st, err = sqlengine.Bind(st, bound); err != nil {
				return nil, err
			}
		}
		t.SetKind("SQL")
		defer t.StartStage(obs.StageScan)()
		return p.Engine.ExecStmtContext(ctx, st)
	default:
		st := pl.dmxStmt
		if len(pl.params) > 0 {
			var err error
			if st, err = bindDMX(st, bound); err != nil {
				return nil, err
			}
		}
		t.SetKind(pl.kind)
		return s.execDMX(ctx, st)
	}
}

// bindDMX binds parameter values into a DMX statement's three SQL parts —
// its SELECT, its ON clause and its source SELECT — copying only the paths to
// placeholders. st itself is never written: it is shared, immutable plan
// state.
func bindDMX(st dmx.Statement, args []rowset.Value) (dmx.Statement, error) {
	switch s := st.(type) {
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

// prepareNamed compiles command and registers it under name in this
// session, returning the compiled plan. Names are session-scoped — the same
// handle name on two sessions never collides. Duplicate names within a
// session are an error: silently replacing a handle a concurrent statement
// on this session is executing would be a trap (DEALLOCATE first, or pick a
// fresh name).
func (s *Session) prepareNamed(ctx context.Context, t *obs.Trace, name, command string) (*plan, error) {
	key := strings.ToLower(name)
	s.mu.Lock()
	_, dup := s.prepared[key]
	s.mu.Unlock()
	if dup {
		return nil, fmt.Errorf("provider: prepared statement %q already exists", name)
	}
	pl, err := s.p.compileCommand(ctx, t, command)
	if err != nil {
		return nil, err
	}
	ps := &preparedStmt{name: name, command: command, plan: pl}
	s.mu.Lock()
	if _, dup := s.prepared[key]; dup {
		s.mu.Unlock()
		return nil, fmt.Errorf("provider: prepared statement %q already exists", name)
	}
	s.prepared[key] = ps
	s.mu.Unlock()
	s.p.preparedTotal.Inc()
	return pl, nil
}

// runPrepared executes a prepared statement, replanning first when any
// referenced catalog object changed since compilation — a plan bound to a
// dropped or re-created schema never executes.
func (s *Session) runPrepared(ctx context.Context, t *obs.Trace, name string, args []rowset.Value, hasArgs bool) (*rowset.Rowset, error) {
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
		fresh, err := p.compileCommand(ctx, t, ps.command)
		if err != nil {
			return nil, fmt.Errorf("provider: prepared statement %q is stale (a referenced object changed) and failed to replan: %w", name, err)
		}
		s.mu.Lock()
		ps.plan = fresh
		s.mu.Unlock()
		pl = fresh
	}
	p.preparedExec.Inc()
	return s.runPlan(ctx, t, pl, args, hasArgs)
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
