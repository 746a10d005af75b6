package shape

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sqlengine"
	"repro/internal/storage"
)

func kinds(root *obs.Span) string {
	var out []string
	root.Walk(func(sp *obs.Span, depth int) { out = append(out, sp.Kind) })
	return strings.Join(out, ",")
}

// spanEngine holds two parents, P (ID LONG) 1 and 2, and C (PID LONG, V TEXT)
// with two children of parent 1 and one orphan.
func spanEngine(t *testing.T) *sqlengine.Engine {
	t.Helper()
	e := sqlengine.NewEngine(storage.NewDatabase())
	for _, s := range []string{
		"CREATE TABLE P (ID LONG)",
		"INSERT INTO P VALUES (1), (2)",
		"CREATE TABLE C (PID LONG, V TEXT)",
		"INSERT INTO C VALUES (1, 'y'), (3, 'orphan'), (1, 'x')",
	} {
		if _, err := e.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestShapeSpans: a SHAPE execution records a shape span whose children are
// the root SELECT and one append span per APPEND clause holding the child's
// operators, and the plan-only tree names the same operators, however the
// engine read the child. The append span counts the child rows its groups
// hold on every path: the orphan, which the filtered and executed paths read,
// belongs to no parent and is not counted.
func TestShapeSpans(t *testing.T) {
	e := spanEngine(t)
	// The child read each way the engine reads one: from the table's key
	// index, from its unprojected scan and filter partitions, by running it
	// whole, and as a nested SHAPE. An ORDER BY the relate column is a no-op
	// for grouping, so the first two neither sort nor plan a sort.
	for _, f := range []struct{ name, child, ops string }{
		{"bare", "{SELECT PID, V FROM C ORDER BY PID}", "select,scan,project"},
		{"filtered", "{SELECT PID, V FROM C WHERE V <> 'z' ORDER BY PID}", "select,scan,filter,project"},
		{"executed", "{SELECT PID, V FROM C ORDER BY V}", "select,scan,project,sort"},
		{"nested shape", "SHAPE {SELECT PID, V FROM C} APPEND ({SELECT V AS W FROM C} RELATE V TO W) AS Ws",
			"shape,select,scan,project,append,select,scan,project"},
	} {
		t.Run(f.name, func(t *testing.T) {
			q, err := ParseString("SHAPE {SELECT ID FROM P} APPEND (" + f.child + " RELATE ID TO PID) AS Kids")
			if err != nil {
				t.Fatal(err)
			}
			tr := obs.NewTrace("shape", "")
			if _, err := q.ExecuteContext(obs.WithTrace(t.Context(), tr), e); err != nil {
				t.Fatal(err)
			}
			root := tr.Root()
			if len(root.Children) != 1 || root.Children[0].Kind != "shape" {
				t.Fatalf("trace spans = %s, want a single shape child", kinds(root))
			}
			sh := root.Children[0]
			if sh.Rows != 2 {
				t.Errorf("shape span rows = %d, want 2", sh.Rows)
			}
			if len(sh.Children) != 2 || sh.Children[0].Kind != "select" || sh.Children[1].Kind != "append" {
				t.Fatalf("shape children = %s, want select,append", kinds(sh))
			}
			ap := sh.Children[1]
			if ap.Label != "Kids" || ap.Rows != 2 || len(ap.Children) != 1 {
				t.Fatalf("append span %q/%d rows over %s, want Kids/2 over the child's spans", ap.Label, ap.Rows, kinds(ap))
			}
			if got := kinds(ap.Children[0]); got != f.ops {
				t.Errorf("child spans %s, want %s", got, f.ops)
			}
			if got, want := kinds(q.PlanSpan()), kinds(sh); got != want {
				t.Errorf("plan spans %s != executed spans %s", got, want)
			}
		})
	}
}
