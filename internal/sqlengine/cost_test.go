package sqlengine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/storage"
)

// costEngine builds SMALL (5 rows) and BIG (100 rows, 50 distinct G values,
// 100 distinct ID values, and N: 4 distinct values and 20 NULLs) with
// indexes on BIG.ID, BIG.G and BIG.N.
func costEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine(storage.NewDatabase())
	steps := []string{
		"CREATE TABLE SMALL (ID LONG, V TEXT)",
		"CREATE TABLE BIG (ID LONG, G TEXT, N LONG)",
	}
	for _, s := range steps {
		if _, err := e.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 5; i++ {
		if _, err := e.Exec(fmt.Sprintf("INSERT INTO SMALL VALUES (%d, 'v%d')", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	var ins strings.Builder
	ins.WriteString("INSERT INTO BIG VALUES ")
	for i := 1; i <= 100; i++ {
		if i > 1 {
			ins.WriteString(", ")
		}
		n := fmt.Sprint(i % 4)
		if i%5 == 0 {
			n = "NULL"
		}
		fmt.Fprintf(&ins, "(%d, 'g%d', %s)", i, i%50, n)
	}
	if _, err := e.Exec(ins.String()); err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"ID", "G", "N"} {
		tbl, err := e.DB.Table("BIG")
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.CreateIndex(col); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// findSpans flattens a span tree to kind → labels.
func findSpans(root *obs.Span, kind string) []string {
	var out []string
	root.Walk(func(sp *obs.Span, depth int) {
		if sp.Kind == kind {
			out = append(out, sp.Label)
		}
	})
	return out
}

func runTraced(t *testing.T, e *Engine, q string) *obs.Span {
	t.Helper()
	tr := obs.NewTrace(q, "")
	if _, err := e.ExecContext(obs.WithTrace(t.Context(), tr), q); err != nil {
		t.Fatal(err)
	}
	return tr.Root()
}

// TestJoinLabelNamesStrategy: an equi-join is a hash join whichever side is
// smaller — the index always covers the right input and the left probes it —
// and every other join is a loop; the span label says which.
func TestJoinLabelNamesStrategy(t *testing.T) {
	e := costEngine(t)
	for q, want := range map[string]string{
		"SELECT SMALL.V, BIG.G FROM SMALL JOIN BIG ON SMALL.ID = BIG.ID":      "inner hash",
		"SELECT SMALL.V, BIG.G FROM BIG JOIN SMALL ON BIG.ID = SMALL.ID":      "inner hash",
		"SELECT SMALL.V, BIG.G FROM BIG LEFT JOIN SMALL ON SMALL.ID = BIG.ID": "left hash",
		"SELECT SMALL.V, BIG.G FROM BIG JOIN SMALL ON BIG.ID < SMALL.ID":      "inner loop",
		"SELECT SMALL.V, BIG.G FROM BIG, SMALL":                               "cross loop",
	} {
		root := runTraced(t, e, q)
		joins := findSpans(root, "join")
		if len(joins) != 1 || !strings.HasPrefix(joins[0], want+" batches=") {
			t.Errorf("%s: join label = %v, want %q", q, joins, want)
		}
	}
}

// TestScanSpanCarriesEstimate: scan labels surface the planner's cardinality
// estimate, shrunk by index pushdown.
func TestScanSpanCarriesEstimate(t *testing.T) {
	e := costEngine(t)
	root := runTraced(t, e, "SELECT G FROM BIG")
	scans := findSpans(root, "scan")
	if len(scans) != 1 || !strings.Contains(scans[0], "est=100") {
		t.Errorf("full scan label = %v, want est=100", scans)
	}
	// An indexed point predicate shrinks the estimate to rows/distinct.
	root = runTraced(t, e, "SELECT G FROM BIG WHERE ID = 7")
	scans = findSpans(root, "scan")
	if len(scans) != 1 || !strings.Contains(scans[0], "index=ID") || !strings.Contains(scans[0], "est=1") {
		t.Errorf("indexed scan label = %v, want index=ID est=1", scans)
	}
	// NULL counts as one value: 100 rows over 4 values and NULL.
	root = runTraced(t, e, "SELECT G FROM BIG WHERE N = 3")
	scans = findSpans(root, "scan")
	if len(scans) != 1 || !strings.Contains(scans[0], "index=N") || !strings.Contains(scans[0], "est=20 ") {
		t.Errorf("indexed scan over NULLs label = %v, want index=N est=20", scans)
	}
}

// TestPushdownPicksMostSelectiveIndex: with two indexed equality conjuncts on
// one scan, the planner pushes the one whose distinct count promises fewer
// rows (ID: 100 distinct → est 1) and leaves the other (G: 50 distinct →
// est 2) as a residual filter.
func TestPushdownPicksMostSelectiveIndex(t *testing.T) {
	e := costEngine(t)
	for _, q := range []string{
		"SELECT G FROM BIG WHERE G = 'g7' AND ID = 7",
		"SELECT G FROM BIG WHERE ID = 7 AND G = 'g7'",
	} {
		root := runTraced(t, e, q)
		scans := findSpans(root, "scan")
		if len(scans) != 1 || !strings.Contains(scans[0], "index=ID") {
			t.Errorf("%q scan label = %v, want index=ID (most selective) regardless of conjunct order", q, scans)
		}
	}
}

// TestCostPlanSpanMirrorsExecution: Engine.PlanSpan (the EXPLAIN surface)
// reports the same join-strategy and pushdown decisions execution makes.
func TestCostPlanSpanMirrorsExecution(t *testing.T) {
	e := costEngine(t)
	for _, q := range []string{
		"SELECT SMALL.V, BIG.G FROM BIG JOIN SMALL ON BIG.ID = SMALL.ID",
		"SELECT G FROM BIG WHERE G = 'g7' AND ID = 7",
	} {
		st, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		planned := e.PlanSpan(context.Background(), st.(*SelectStmt))
		root := runTraced(t, e, q)
		for _, kind := range []string{"scan", "join"} {
			plan, exec := findSpans(planned, kind), findSpans(root.Children[0], kind)
			if len(plan) != len(exec) {
				t.Errorf("%q %s spans: plan %v != executed %v", q, kind, plan, exec)
				continue
			}
			for i := range plan {
				// Executed spans may append runtime-only annotations
				// ("batches=N") after the planned label; the planning
				// decisions themselves must match exactly.
				if !strings.HasPrefix(exec[i], plan[i]) {
					t.Errorf("%q %s label: plan %q is not a prefix of executed %q", q, kind, plan[i], exec[i])
				}
			}
		}
	}
}
