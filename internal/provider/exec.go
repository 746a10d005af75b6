package provider

import (
	"context"
	"errors"

	"repro/internal/core"
	"repro/internal/dmx"
	"repro/internal/dmx/sem"
	"repro/internal/obs"
	"repro/internal/plancache"
	"repro/internal/rowset"
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

// executeTracedArgs runs one command, attributing stage time to the trace
// carried by ctx (t may be nil: every trace method is a no-op then), with args
// bound to its placeholders. Every command goes one way: a plan-cache lookup,
// on a miss one parse and a compile, then runPlan. The normalized command text
// is the cache key, so keyword case and insignificant whitespace hit the same
// entry; plans of statements not worth caching (DDL, EXPLAIN and the
// PREPARE/EXECUTE/DEALLOCATE controls) are compiled on every execution.
func (s *Session) executeTracedArgs(ctx context.Context, t *obs.Trace, command string, args []rowset.Value) (*rowset.Rowset, error) {
	p := s.p
	// The plan-cache lookup stands in for the parse, so it is the parse stage.
	stage := t.StartStage(obs.StageParse)
	key := plancache.Normalize(command)
	v, ok := p.planCache.Get(key)
	if !ok {
		// Snapshot the DDL epoch before compiling: if any DDL lands while
		// this plan is being built, Put drops the store rather than caching
		// a plan that may already be stale.
		epoch := p.versions.Epoch()
		pl, next, err := p.compileFrom(stage, command)
		if stage = next; err != nil {
			stage.Stop()
			return nil, err
		}
		if pl.cacheable {
			p.planCache.Put(key, pl, pl.deps, epoch)
		}
		v = pl
	}
	return s.runPlan(ctx, stage, v.(*plan), args)
}

// statementKind labels a statement class for the query log.
func statementKind(st dmx.Statement) string {
	switch st := st.(type) {
	case *dmx.SQL:
		return "SQL"
	case *dmx.Shape:
		return "SHAPE"
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
