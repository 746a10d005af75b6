package provider

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/rowset"
	"repro/internal/shape"
)

// relateChild is one form of APPEND child: its SELECT, the output names of
// its relate key, its product column ("" when it has none) and its quantity
// column ("" when it has none).
type relateChild struct {
	sel, key, item, qty string
}

// relateChildren are the child forms the RELATE index answers: columns as
// stored, reordered, a subset, aliased and qualified, and ORDER BY the key by
// column and by alias. C is (Item TEXT, CK DOUBLE, Qty DOUBLE, Note TEXT).
var relateChildren = []relateChild{
	{"SELECT Item, CK, Qty, Note FROM C", "CK", "Item", "Qty"},
	{"SELECT Qty, CK, Item FROM C", "CK", "Item", "Qty"},
	{"SELECT CK, Note FROM C", "CK", "", ""},
	{"SELECT c.CK AS Ref, c.Item AS Product FROM C AS c", "Ref", "Product", ""},
	{"SELECT CK, Item, Qty FROM C ORDER BY CK", "CK", "Item", "Qty"},
	{"SELECT CK AS Ref, Item, Qty AS Amount FROM C ORDER BY Ref", "Ref", "Item", "Amount"},
}

// engineForm adds an always-true WHERE, which no RELATE index answers.
func (c relateChild) engineForm() string {
	if at := strings.Index(c.sel, " ORDER BY"); at >= 0 {
		return c.sel[:at] + " WHERE 1 = 1" + c.sel[at:]
	}
	return c.sel + " WHERE 1 = 1"
}

// relateTables fills P (K LONG, Name TEXT) and C from seed: a fifth of the
// parent keys and a quarter of the child keys NULL, parent keys repeating,
// parents without children and children without parents.
func relateTables(t *testing.T, p *Provider, seed int64) {
	t.Helper()
	mustExec(t, p, "CREATE TABLE P (K LONG, Name TEXT)")
	mustExec(t, p, "CREATE TABLE C (Item TEXT, CK DOUBLE, Qty DOUBLE, Note TEXT)")
	rng := rand.New(rand.NewSource(seed))
	maybe := func(share float64, v rowset.Value) rowset.Value {
		if rng.Float64() < share {
			return nil
		}
		return v
	}
	parents, _ := p.DB.Table("P")
	for range 300 {
		if err := parents.Insert(rowset.Row{maybe(0.2, int64(rng.Intn(120))), fmt.Sprint("n", rng.Intn(3))}); err != nil {
			t.Fatal(err)
		}
	}
	children, _ := p.DB.Table("C")
	for range 900 {
		row := rowset.Row{fmt.Sprint("i", rng.Intn(10)), maybe(0.25, float64(rng.Intn(160))), maybe(0.3, float64(rng.Intn(5))), maybe(0.5, "note")}
		if err := children.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
}

// shapeBytes runs a SHAPE and returns its encoded output, and whether a scan
// of the run was an index probe.
func shapeBytes(t *testing.T, p *Provider, src string) ([]byte, bool) {
	t.Helper()
	tr := obs.NewTrace("shape", "")
	rs, err := shape.ExecuteStringContext(obs.WithTrace(t.Context(), tr), p.Engine, src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	indexed := false
	tr.Root().Walk(func(sp *obs.Span, _ int) {
		indexed = indexed || sp.Kind == "scan" && strings.Contains(sp.Label, "index=")
	})
	return encoded(t, rs), indexed
}

// TestRelatePathsAgree: an APPEND child the RELATE index answers gives the
// caseset — and the model trained on it — that running the child through the
// engine gives. Every eligible child form runs twice, as written and with an
// always-true WHERE, over seeded tables with NULL-dense keys, repeated parent
// keys, parents without children and LONG parent keys against DOUBLE child
// keys.
func TestRelatePathsAgree(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		p := MustNew()
		relateTables(t, p, seed)
		for _, c := range relateChildren {
			shapeOf := func(child string) string {
				return fmt.Sprintf("SHAPE {SELECT K, Name FROM P} APPEND ({%s} RELATE K TO %s) AS Kids", child, c.key)
			}
			byIndex, indexed := shapeBytes(t, p, shapeOf(c.sel))
			byEngine, engineIndexed := shapeBytes(t, p, shapeOf(c.engineForm()))
			if !indexed || engineIndexed {
				t.Fatalf("%s: index probe as written %v, with WHERE %v; want true, false", c.sel, indexed, engineIndexed)
			}
			if string(byIndex) != string(byEngine) {
				t.Errorf("seed %d, %s: the two paths' casesets differ", seed, c.sel)
			}
			if c.item == "" {
				continue
			}
			nested, bind := fmt.Sprintf("[%s] TEXT KEY", c.item), fmt.Sprintf("[%s]", c.item)
			if c.qty != "" {
				nested += fmt.Sprintf(", [%s] DOUBLE CONTINUOUS", c.qty)
				bind += fmt.Sprintf(", [%s]", c.qty)
			}
			var models [2]string
			for i, child := range []string{c.sel, c.engineForm()} {
				mustExec(t, p, "CREATE MINING MODEL M (K LONG KEY, Name TEXT DISCRETE PREDICT, Kids TABLE("+nested+")) USING Decision_Trees")
				mustExec(t, p, "INSERT INTO M (K, Name, Kids("+bind+")) "+shapeOf(child))
				models[i] = string(encoded(t, mustExec(t, p, "SELECT * FROM M.CASES"))) + string(encoded(t, mustExec(t, p, "SELECT * FROM M.CONTENT")))
				mustExec(t, p, "DROP MINING MODEL M")
			}
			if models[0] != models[1] {
				t.Errorf("seed %d, %s: the models trained through the two paths differ", seed, c.sel)
			}
		}
	}
}

// TestNullRelateKeyTrainsNoChildren: through INSERT INTO, on either path, a
// NULL-keyed customer's case has no Product Purchases attributes — it does not
// train on every sale whose customer is unknown.
func TestNullRelateKeyTrainsNoChildren(t *testing.T) {
	p := MustNew()
	mustExec(t, p, "CREATE TABLE P (K LONG, Name TEXT)")
	mustExec(t, p, "INSERT INTO P VALUES (1, 'a'), (NULL, 'b'), (2, 'a')")
	mustExec(t, p, "CREATE TABLE C (K LONG, Item TEXT)")
	mustExec(t, p, "INSERT INTO C VALUES (1, 'x'), (NULL, 'orphan1'), (NULL, 'orphan2'), (2, 'y')")
	for _, child := range []string{"SELECT K, Item FROM C", "SELECT K, Item FROM C WHERE 1 = 1"} {
		mustExec(t, p, "CREATE MINING MODEL N (K LONG KEY, Name TEXT DISCRETE PREDICT, [Product Purchases] TABLE(Item TEXT KEY)) USING Decision_Trees")
		mustExec(t, p, "INSERT INTO N (K, Name, [Product Purchases](Item)) SHAPE {SELECT K, Name FROM P} APPEND ({"+child+"} RELATE K TO K) AS [Product Purchases]")
		e, err := p.entry("N")
		if err != nil {
			t.Fatal(err)
		}
		for i := range e.cases.Len() {
			c := e.cases.Case(i)
			var kids []string
			for _, cell := range c.Cells() {
				if a := e.model.Space.Attr(int(cell.Attr)); a.Column == "Product Purchases" {
					kids = append(kids, a.NestedKey)
				}
			}
			if want := map[any]int{int64(1): 1, nil: 0, int64(2): 1}[c.Key]; len(kids) != want {
				t.Errorf("%s: case %v has purchases %v, want %d", child, c.Key, kids, want)
			}
		}
		mustExec(t, p, "DROP MINING MODEL N")
	}
}

// TestInsertScalarBoundToNestedTable: a scalar model column bound to a SHAPE's
// nested TABLE column is a binding error, not a table tokenized as a state.
func TestInsertScalarBoundToNestedTable(t *testing.T) {
	p := MustNew()
	setupCustomerData(t, p, 10)
	mustExec(t, p, "CREATE MINING MODEL S ([Customer ID] LONG KEY, Gender TEXT DISCRETE, Age DOUBLE CONTINUOUS PREDICT) USING Decision_Trees")
	_, err := p.Execute(`INSERT INTO S ([Customer ID], Age, Gender) SHAPE {SELECT [Customer ID], Age FROM Customers}
		APPEND ({SELECT CustID, [Product Name] FROM Sales} RELATE [Customer ID] TO CustID) AS Gender`)
	if err == nil || !strings.Contains(err.Error(), "is a nested table") {
		t.Fatalf("err = %v, want a nested-table binding error", err)
	}
}

// pollLimit is a context whose Err reports cancellation once it has been
// called more than n times (n < 0: never), counting the calls. Done is nil, so
// the engine, which watches Done, never notices: only code that polls Err —
// the statement's entry, SHAPE's query boundaries and its grouping loop — does,
// in one deterministic sequence.
type pollLimit struct {
	context.Context
	n, polls int
}

func (c *pollLimit) Err() error {
	c.polls++
	if c.n >= 0 && c.polls > c.n {
		return context.Canceled
	}
	return nil
}

// TestCancelDuringCaseAssembly: a training statement cancelled while SHAPE
// groups its children — the statement's last polls of ctx, one every
// rowset.DefaultBatchSize parents — returns ctx.Err() and publishes no model.
func TestCancelDuringCaseAssembly(t *testing.T) {
	p := MustNew()
	setupCustomerData(t, p, 5000)
	mustExec(t, p, createAgeModel)
	polls := func(insert string) int {
		ctx := &pollLimit{Context: context.Background(), n: -1}
		if _, err := p.NewSession().Execute(ctx, insert); err != nil {
			t.Fatal(err)
		}
		mustExec(t, p, "DELETE FROM [Age Prediction]")
		return ctx.polls
	}
	all := polls(insertAgeModel)
	few := polls(strings.Replace(insertAgeModel, "FROM Customers", "FROM Customers WHERE [Customer ID] <= 100", 1))
	if all-few != 4 { // ⌈5000/1024⌉ grouping polls against ⌈100/1024⌉
		t.Fatalf("%d polls over 5000 customers, %d over 100: want the grouping to poll every %d parents", all, few, rowset.DefaultBatchSize)
	}
	for _, n := range []int{all - 1, all - 3} {
		_, err := p.NewSession().Execute(&pollLimit{Context: context.Background(), n: n}, insertAgeModel)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at poll %d of %d: err = %v, want context.Canceled", n+1, all, err)
		}
		e, err := p.entry("Age Prediction")
		if err != nil {
			t.Fatal(err)
		}
		if populated(e) == nil || e.cases.Len() != 0 {
			t.Fatalf("cancelled at poll %d of %d: a model with %d cases was published", n+1, all, e.cases.Len())
		}
	}
}
