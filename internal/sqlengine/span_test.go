package sqlengine

import (
	"context"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/storage"
)

func spanKinds(root *obs.Span) string {
	var kinds []string
	root.Walk(func(sp *obs.Span, depth int) {
		kinds = append(kinds, sp.Kind)
	})
	return strings.Join(kinds, ",")
}

// TestQueryContextSpans: one span per executor node, nested under the select,
// with row counts from the actual operator outputs and — every operator
// speaks batches, however small the input — the batches that flowed through
// it on its label.
func TestQueryContextSpans(t *testing.T) {
	e := NewEngine(storage.NewDatabase())
	for _, s := range []string{
		"CREATE TABLE T (ID LONG, G TEXT)",
		"INSERT INTO T VALUES (1, 'a')",
		"INSERT INTO T VALUES (2, 'b')",
		"INSERT INTO T VALUES (3, 'a')",
		"CREATE TABLE U (ID LONG, X DOUBLE)",
		"INSERT INTO U VALUES (1, 1.5)",
		"INSERT INTO U VALUES (2, 2.5)",
	} {
		if _, err := e.Exec(s); err != nil {
			t.Fatal(err)
		}
	}

	tr := obs.NewTrace("q", "")
	ctx := obs.WithTrace(t.Context(), tr)
	if _, err := e.ExecContext(ctx, "SELECT T.G, U.X FROM T JOIN U ON T.ID = U.ID WHERE T.ID > 0 ORDER BY U.X"); err != nil {
		t.Fatal(err)
	}
	root := tr.Root()
	if len(root.Children) != 1 || root.Children[0].Kind != "select" {
		t.Fatalf("root children = %s", spanKinds(root))
	}
	sel := root.Children[0]
	want := map[string]int64{"scan": -1, "join": 2, "filter": 2, "project": 2, "sort": 2}
	got := map[string]int64{}
	for _, c := range sel.Children {
		got[c.Kind] = c.Rows
		if c.Kind != "sort" && !strings.HasSuffix(c.Label, "batches=1") {
			t.Errorf("%s span label = %q, want it to end in batches=1", c.Kind, c.Label)
		}
	}
	for k, rows := range want {
		r, ok := got[k]
		if !ok {
			t.Errorf("select has no %q child (children: %s)", k, spanKinds(sel))
			continue
		}
		if rows >= 0 && r != rows {
			t.Errorf("%s span rows = %d, want %d", k, r, rows)
		}
	}
	if sel.Rows != 2 {
		t.Errorf("select span rows = %d, want 2", sel.Rows)
	}

	// Aggregates swap project/sort for a group-by node.
	tr2 := obs.NewTrace("q2", "")
	if _, err := e.ExecContext(obs.WithTrace(t.Context(), tr2), "SELECT G, COUNT(*) FROM T GROUP BY G"); err != nil {
		t.Fatal(err)
	}
	if kinds := spanKinds(tr2.Root()); kinds != "statement,select,scan,group-by" {
		t.Errorf("aggregate spans = %s", kinds)
	}
}

// TestPlanSpanMirrorsExecution: the plan-only tree names the same operators,
// in the same order, as the spans an actual run records.
func TestPlanSpanMirrorsExecution(t *testing.T) {
	e := NewEngine(storage.NewDatabase())
	for _, s := range []string{
		"CREATE TABLE T (ID LONG, G TEXT)",
		"INSERT INTO T VALUES (1, 'a')",
	} {
		if _, err := e.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{
		"SELECT G FROM T WHERE ID = 1 ORDER BY G",
		"SELECT G, COUNT(*) FROM T GROUP BY G",
		"SELECT A.G FROM T AS A, T AS B",
	} {
		st, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		sel := st.(*SelectStmt)
		tr := obs.NewTrace("q", "")
		if _, err := e.ExecContext(obs.WithTrace(t.Context(), tr), q); err != nil {
			t.Fatal(err)
		}
		executed := spanKinds(tr.Root().Children[0])
		planned := spanKinds(sel.PlanSpan())
		if executed != planned {
			t.Errorf("query %q: plan %s != executed %s", q, planned, executed)
		}
	}
}

// TestPlanSpanStatesPartitioning: EXPLAIN's cost-annotated plan and an
// executed trace state the same strategy — the scan of a table above the
// partition size carries morsels=N workers=W in both, decided by the same
// partitionRanges, and a streaming TOP over the same table carries neither.
func TestPlanSpanStatesPartitioning(t *testing.T) {
	e := bigTable(t, 2*storage.DefaultMorselSize+1)
	e.Workers = 3
	for q, fanOut := range map[string]string{
		"SELECT a FROM T WHERE b > 10 ORDER BY b": " morsels=3 workers=3",
		"SELECT g, STDEV(b) FROM T GROUP BY g":    " morsels=3 workers=3",
		"SELECT TOP 5 a FROM T WHERE b > 10":      "",
	} {
		st, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		planned := e.PlanSpan(context.Background(), st.(*SelectStmt))
		tr := obs.NewTrace("q", "")
		if _, err := e.ExecContext(obs.WithTrace(t.Context(), tr), q); err != nil {
			t.Fatal(err)
		}
		executed := tr.Root().Children[0]
		if pk, ek := spanKinds(planned), spanKinds(executed); pk != ek {
			t.Errorf("query %q: plan %s != executed %s", q, pk, ek)
		}
		want := "T est=8193" + fanOut
		if got := planned.Children[0].Label; got != want {
			t.Errorf("query %q: planned scan label %q, want %q", q, got, want)
		}
		// The executed label may additionally count the batches that flowed.
		got := executed.Children[0].Label
		if !strings.HasPrefix(got, want) || strings.Contains(got, "morsels=") != (fanOut != "") {
			t.Errorf("query %q: executed scan label %q, want %q (+ batches)", q, got, want)
		}
		// The query log's PARALLELISM is the goroutines the partitions ran on.
		wantPar := 1
		if fanOut != "" {
			wantPar = 3
		}
		if got := tr.Finish("").Parallelism; got != wantPar {
			t.Errorf("query %q: recorded parallelism %d, want %d", q, got, wantPar)
		}
	}
}
