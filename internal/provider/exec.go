package provider

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dmx"
	"repro/internal/dmx/sem"
	"repro/internal/lex"
	"repro/internal/obs"
	"repro/internal/plancache"
	"repro/internal/rowset"
	"repro/internal/shape"
)

// ExecOption configures one execution call.
type ExecOption func(*execConfig)

type execConfig struct {
	origin string
	seqOut *int64
}

// WithOrigin labels where the statement came from (a remote address, a tool
// name); the label is recorded in the $SYSTEM.DM_QUERY_LOG rowset. It
// overrides the session's WithSessionOrigin label for this call.
func WithOrigin(origin string) ExecOption {
	return func(c *execConfig) { c.origin = origin }
}

// WithSeqOut asks the execution to write the statement's query-log sequence
// number into *seq when the statement completes (success or failure). The
// seq correlates the caller's view of a statement with its DM_QUERY_LOG and
// DM_FLIGHT_RECORDER rows — dmserver forwards it to clients in the stats
// trailer. With observability disabled *seq is left untouched.
func WithSeqOut(seq *int64) ExecOption {
	return func(c *execConfig) { c.seqOut = seq }
}

// ---------- statement pipeline (session-scoped) ----------

// executeTracedArgs dispatches one command, attributing stage time to the
// trace carried by ctx (t may be nil: every trace method is a no-op then).
// Plannable statements go through the plan cache: the normalized command text
// is the key, so keyword case and insignificant whitespace hit the same
// entry. args bind the command's placeholders; hasArgs distinguishes "zero
// arguments supplied" from plain (unparameterized) execution.
func (s *Session) executeTracedArgs(ctx context.Context, t *obs.Trace, command string, args []rowset.Value, hasArgs bool) (*rowset.Rowset, error) {
	p := s.p
	if sc := lex.NewScanner(command); sc.Peek().Is("SHAPE") {
		if hasArgs && len(args) > 0 {
			return nil, fmt.Errorf("provider: SHAPE statements take no parameters")
		}
		t.SetKind("SHAPE")
		defer t.StartStage(obs.StageSource)()
		return shape.ExecuteStringContext(ctx, p.Engine, command)
	}
	// PREPARE / EXECUTE / DEALLOCATE manage the cache rather than live in it:
	// dispatch them directly so control statements never pollute hit/miss
	// counters (and a PREPARE's raw text is never a cache key).
	if sc := lex.NewScanner(command); sc.Peek().Is("PREPARE") || sc.Peek().Is("EXECUTE") || sc.Peek().Is("DEALLOCATE") {
		if hasArgs && len(args) > 0 {
			return nil, fmt.Errorf("provider: %s statements take no separate arguments", strings.ToUpper(sc.Peek().Text))
		}
		stopParse := t.StartStage(obs.StageParse)
		st, err := dmx.Parse(command, p.IsModel)
		stopParse()
		if err != nil {
			t.SetErrClass("parse")
			return nil, err
		}
		t.SetKind(statementKind(st))
		return s.execDMXChecked(ctx, st)
	}
	key := plancache.Normalize(command)
	if v, ok := p.planCache.Get(key); ok {
		pl := v.(*plan)
		return s.runPlan(ctx, t, pl, args, hasArgs)
	}
	// Snapshot the DDL epoch before compiling: if any DDL lands while this
	// plan is being built, Put drops the store rather than caching a plan
	// that may already be stale.
	epoch := p.versions.Epoch()
	pl, err := p.compileCommand(ctx, t, command)
	if err != nil {
		return nil, err
	}
	if pl.cacheable {
		p.planCache.Put(key, pl, pl.deps, epoch)
	}
	return s.runPlan(ctx, t, pl, args, hasArgs)
}

// execDMXChecked runs a parsed DMX statement. Statements are bound by the
// semantic checker first, so name and type errors surface with source
// positions before any execution work starts.
func (s *Session) execDMXChecked(ctx context.Context, st dmx.Statement) (*rowset.Rowset, error) {
	t := obs.FromContext(ctx)
	stopBind := t.StartStage(obs.StageBind)
	err := sem.Check(st, s.p)
	stopBind()
	if err != nil {
		return nil, err
	}
	return s.execDMX(ctx, st)
}

// execDMX dispatches an already-checked DMX statement. Plans run through
// here directly: they were semantic-checked at compile time and dependency
// versioning guarantees the catalog they were checked against still stands,
// so re-checking on every (cached or prepared) execution would only buy
// latency. Catalog reads resolve against the current immutable snapshot, so
// no dispatch arm takes a lock.
func (s *Session) execDMX(ctx context.Context, st dmx.Statement) (*rowset.Rowset, error) {
	p := s.p
	t := obs.FromContext(ctx)
	switch st := st.(type) {
	case *dmx.Explain:
		return s.explainStmt(ctx, st)
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
		if _, err := s.prepareNamed(ctx, t, st.Name, st.Command); err != nil {
			return nil, err
		}
		return status("statement prepared")
	case *dmx.ExecutePrepared:
		return s.runPrepared(ctx, t, st.Name, st.Args, true)
	case *dmx.Deallocate:
		return s.deallocateRS(st.Name)
	}
	return nil, fmt.Errorf("provider: unsupported DMX statement %T", st)
}

// statementKind labels a DMX statement class for the query log.
func statementKind(st dmx.Statement) string {
	switch st := st.(type) {
	case *dmx.Explain:
		return "EXPLAIN"
	case *dmx.CreateModel:
		return "CREATE MODEL"
	case *dmx.InsertInto:
		return "INSERT MODEL"
	case *dmx.PredictionSelect:
		return "PREDICT"
	case *dmx.RowsetSelect:
		if st.Model == "" {
			return "SCHEMA ROWSET"
		}
		return st.Rowset // CONTENT, COLUMNS, CASES or PMML
	case *dmx.DeleteFrom:
		return "DELETE MODEL"
	case *dmx.DropModel:
		return "DROP MODEL"
	case *dmx.Prepare:
		return "PREPARE"
	case *dmx.ExecutePrepared:
		return "EXECUTE"
	case *dmx.Deallocate:
		return "DEALLOCATE"
	}
	return "DMX"
}

// errorClass buckets an execution error for the query log: parse (set by the
// parse stage), semantic (binder diagnostics), not_found (catalogue misses),
// cancelled (context cancellation or deadline), busy (admission rejection),
// or exec for everything else.
func errorClass(t *obs.Trace, err error) string {
	if err == nil {
		return ""
	}
	if c := t.ErrClass(); c != "" {
		return c
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return "cancelled"
	}
	if IsBusy(err) {
		return "busy"
	}
	if core.IsNotFound(err) {
		return "not_found"
	}
	var diags sem.Diagnostics
	if errors.As(err, &diags) {
		return "semantic"
	}
	return "exec"
}
