package sqlengine

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rowset"
	"repro/internal/storage"
)

// inputRelation is a Relation over the rows of the source query q, under the
// alias s, with a frame-only column M (= 3·a + 1 of the row's first column).
// Streamed, the rows are q planned as an Input; otherwise they are q's result.
// Its binder reuses its frames whenever the engine allows it, so an engine
// that kept a frame past its batch while allowing reuse would read another
// row's M.
func inputRelation(t *testing.T, e *Engine, q string, streamed bool) *Relation {
	t.Helper()
	src := mustSelect(t, q)
	rel := &Relation{
		Resolve: func(x Expr) Compiled {
			if cr, ok := x.(*ColumnRef); ok && strings.EqualFold(cr.Name, "M") {
				return func(env *Env) (rowset.Value, error) { return *env.Ext.(*int64), nil }
			}
			return nil
		},
		Bind: func(reuse bool) func([]rowset.Row, []any) (int, error) {
			var frames []int64
			return func(rows []rowset.Row, ext []any) (int, error) {
				if !reuse {
					frames = nil
				}
				frames = slices.Grow(frames[:0], len(rows))[:len(rows)]
				for i, r := range rows {
					a, _ := r[0].(int64)
					frames[i] = 3*a + 1
					ext[i] = &frames[i]
				}
				return len(rows), nil
			}
		},
		Kind: "bind",
	}
	var schema *rowset.Schema
	if streamed {
		in, err := e.PlanInput(context.Background(), src)
		if err != nil || in == nil {
			t.Fatalf("%s: PlanInput = %v, %v; want a streamed input", q, in, err)
		}
		rel.Input, schema = in, in.Schema
	} else {
		rs, err := e.QueryContext(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		rel.Rows, schema = rs.Rows(), rs.Schema()
	}
	cols := slices.Clone(schema.Columns)
	for i := range cols {
		cols[i].Name = "s." + cols[i].Name
	}
	rel.Schema = rowset.MustSchema(cols...)
	return rel
}

// TestStreamedInputMatchesMaterialized: a Relation whose SELECT streams into
// it (Relation.Input) returns the bytes the same relation over that SELECT's
// materialized rows returns, for every outer statement shape — a filter and
// ORDER BY on frame values, an outer TOP without ORDER BY (one front-to-back
// partition), an identity projection that passes the input rows on, DISTINCT,
// and GROUP BY, which keeps each group's first frame and so gets no reuse —
// at 1, 2 and 8 workers and at 16-row partitions (one batch each) and larger
// ones (several). Sources that compute an item, sort or take a TOP do not
// stream, and their order is kept.
func TestStreamedInputMatchesMaterialized(t *testing.T) {
	e := bigTable(t, 3000)
	addJoinTable(t, e, 200)
	tbl, _ := e.DB.Table("T")
	if err := tbl.CreateIndex("g"); err != nil {
		t.Fatal(err)
	}
	streamed := []string{
		"SELECT a, g, b FROM T",
		"SELECT a, b, g FROM T", // projected into rows of its own
		"SELECT * FROM T WHERE b > 3 AND g <> 'c'",
		"SELECT a, b FROM T WHERE g = 'b'",             // an index probe
		"SELECT a, b FROM T WHERE g = 'b' AND a > 100", // a probe and a filter
		"SELECT T.a, U.h, T.g FROM T JOIN U ON T.a = U.k",
	}
	outer := []string{
		"SELECT s.a, M FROM x WHERE M > 40 ORDER BY M DESC, s.a",
		"SELECT TOP 7 s.a, M FROM x",
		"SELECT s.* FROM x",
		"SELECT DISTINCT s.a - s.a, M - M FROM x",
		"SELECT s.a, M, COUNT(*), SUM(M), MIN(M) FROM x GROUP BY s.a / 10",
	}
	for _, q := range streamed {
		for _, o := range outer {
			sel := mustSelect(t, o)
			var want []byte
			for _, cfg := range []struct{ workers, partRows int }{{1, smallPartRows}, {2, smallPartRows}, {8, smallPartRows}, {2, 2048}, {8, storage.DefaultMorselSize}} {
				e.Workers = cfg.workers
				for _, stream := range []bool{false, true} {
					rs, err := e.query(context.Background(), sel, inputRelation(t, e, q, stream), cfg.partRows)
					if err != nil {
						t.Fatalf("%s over %s: %v", o, q, err)
					}
					var buf bytes.Buffer
					if err := rs.Encode(&buf); err != nil {
						t.Fatal(err)
					}
					if want == nil {
						want = buf.Bytes()
					} else if !bytes.Equal(buf.Bytes(), want) {
						t.Errorf("%s over %s: streamed=%v workers=%d partRows=%d differs", o, q, stream, cfg.workers, cfg.partRows)
					}
				}
			}
		}
	}
	for _, q := range []string{
		"SELECT a, g, b * 2 AS b FROM T",
		"SELECT a, g FROM T ORDER BY b DESC",
		"SELECT TOP 40 a, g FROM T WHERE a > 5",
		"SELECT DISTINCT g FROM T",
		"SELECT a, nope FROM T",
	} {
		if in, err := e.PlanInput(context.Background(), mustSelect(t, q)); in != nil || err != nil {
			t.Errorf("%s: PlanInput = %v, %v; want it materialized", q, in, err)
		}
	}
	// A materialized source's order is the order the relation yields.
	e.Workers = 2
	rs, err := e.query(context.Background(), mustSelect(t, "SELECT s.a FROM x"), inputRelation(t, e, "SELECT a, g FROM T ORDER BY b DESC, a", false), smallPartRows)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := e.Exec("SELECT a FROM T ORDER BY b DESC, a")
	if !slices.EqualFunc(rs.Rows(), src.Rows(), func(a, b rowset.Row) bool { return a[0] == b[0] }) {
		t.Errorf("relation over a sorted source lost its order")
	}
}

// TestStreamedInputSpans: a streamed input records its scan, filter and
// projection ahead of the relation's operator in the statement's select, its
// scan with the fan-out of the statement's partitions; InputPlanSpans plans
// the same operators. An outer TOP without ORDER BY keeps one partition.
func TestStreamedInputSpans(t *testing.T) {
	e := bigTable(t, 10000)
	e.Workers = 2
	for _, c := range []struct {
		outer, ops, scan string
	}{
		{"SELECT s.a, M FROM x WHERE M > 5", "scan,filter,project,bind,filter,project", "morsels=3 workers=2"},
		{"SELECT TOP 3 s.a FROM x", "scan,filter,project,bind,project", ""},
	} {
		sel := mustSelect(t, c.outer)
		rel := inputRelation(t, e, "SELECT a, g FROM T WHERE b > 1", true)
		var planned []string
		for _, sp := range e.InputPlanSpans(sel, rel.Input) {
			planned = append(planned, sp.Kind)
		}
		tr := obs.NewTrace(c.outer, "")
		if _, err := e.QueryRelation(obs.WithTrace(context.Background(), tr), sel, *rel); err != nil {
			t.Fatal(err)
		}
		root := tr.SpanTree(0)
		var ops []string
		var scan *obs.Span
		for _, sp := range root.Children[0].Children {
			ops = append(ops, sp.Kind)
			if sp.Kind == "scan" {
				scan = sp
			}
		}
		if got := strings.Join(ops, ","); got != c.ops || !strings.HasPrefix(got, strings.Join(planned, ",")+",bind") {
			t.Errorf("%s: spans %s, planned %v; want %s", c.outer, got, planned, c.ops)
		}
		if strings.Contains(scan.Label, "morsels=") != (c.scan != "") || !strings.Contains(scan.Label, c.scan) {
			t.Errorf("%s: scan label %q, want %q", c.outer, scan.Label, c.scan)
		}
	}
}

// TestStreamedInputCancelled: a statement over a streamed input that is
// cancelled mid-scan stops with context.Canceled and leaves no partition
// worker running.
func TestStreamedInputCancelled(t *testing.T) {
	e := bigTable(t, 20000)
	e.Workers = 4
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rel := inputRelation(t, e, "SELECT a, g FROM T", true)
	bind := rel.Bind
	var batches atomic.Int32
	rel.Bind = func(reuse bool) func([]rowset.Row, []any) (int, error) {
		inner := bind(reuse)
		return func(rows []rowset.Row, ext []any) (int, error) {
			if batches.Add(1) == 3 {
				cancel()
			}
			return inner(rows, ext)
		}
	}
	_, err := e.QueryRelation(ctx, mustSelect(t, "SELECT s.a, M FROM x ORDER BY M"), *rel)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the statement, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
