package provider

import (
	"encoding/xml"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rowset"
	"repro/internal/workload"
)

// The paper's prose claims about the provider, asserted over the generated
// warehouse (DESIGN.md § 3 lists each claim with the test that holds it).
// How fast each path runs is `go run ./bench`'s job, not these tests'.

// claimWarehouse is a provider over a freshly generated warehouse.
func claimWarehouse(t *testing.T, customers int) (*Provider, *workload.Truth) {
	t.Helper()
	p := MustNew()
	truth, err := workload.Populate(p.DB, workload.Config{Customers: customers, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return p, truth
}

// serviceModels is one model per bundled mining service over the same
// warehouse.
var serviceModels = []struct{ service, create, insert string }{
	{"Decision_Trees", `CREATE MINING MODEL [Trees] (
			[Customer ID] LONG KEY, [Gender] TEXT DISCRETE,
			[Age] DOUBLE DISCRETIZED PREDICT,
			[Product Purchases] TABLE([Product Name] TEXT KEY)
		) USING [Decision_Trees]`,
		`INSERT INTO [Trees] ([Customer ID], [Gender], [Age], [Product Purchases]([Product Name]))
		SHAPE {SELECT [Customer ID], Gender, Age FROM Customers ORDER BY [Customer ID]}
		APPEND ({SELECT CustID, [Product Name] FROM Sales ORDER BY CustID}
			RELATE [Customer ID] TO [CustID]) AS [Product Purchases]`},
	{"Naive_Bayes", `CREATE MINING MODEL [Bayes] (
			[Customer ID] LONG KEY, [Age] DOUBLE CONTINUOUS,
			[Hair Color] TEXT DISCRETE, [Gender] TEXT DISCRETE PREDICT
		) USING [Naive_Bayes]`,
		`INSERT INTO [Bayes] ([Customer ID], [Age], [Hair Color], [Gender])
		SELECT [Customer ID], Age, [Hair Color], Gender FROM Customers`},
	{"Clustering", `CREATE MINING MODEL [Cluster] (
			[Customer ID] LONG KEY, [Gender] TEXT DISCRETE, [Age] DOUBLE CONTINUOUS
		) USING [Clustering] (CLUSTER_COUNT = 3)`,
		`INSERT INTO [Cluster] ([Customer ID], [Gender], [Age])
		SELECT [Customer ID], Gender, Age FROM Customers`},
	{"Association_Rules", `CREATE MINING MODEL [Assoc] (
			[Customer ID] LONG KEY,
			[Product Purchases] TABLE([Product Name] TEXT KEY) PREDICT
		) USING [Association_Rules] (MINIMUM_SUPPORT = 0.02)`,
		`INSERT INTO [Assoc] ([Customer ID], [Product Purchases]([Product Name]))
		SHAPE {SELECT [Customer ID] FROM Customers ORDER BY [Customer ID]}
		APPEND ({SELECT CustID, [Product Name] FROM Sales ORDER BY CustID}
			RELATE [Customer ID] TO [CustID]) AS [Product Purchases]`},
	{"Linear_Regression", `CREATE MINING MODEL [LinReg] (
			[Customer ID] LONG KEY, [Gender] TEXT DISCRETE,
			[Product Purchases] TABLE([Product Name] TEXT KEY),
			[Age] DOUBLE CONTINUOUS PREDICT
		) USING [Linear_Regression]`,
		`INSERT INTO [LinReg] ([Customer ID], [Gender], [Age], [Product Purchases]([Product Name]))
		SHAPE {SELECT [Customer ID], Gender, Age FROM Customers ORDER BY [Customer ID]}
		APPEND ({SELECT CustID, [Product Name] FROM Sales ORDER BY CustID}
			RELATE [Customer ID] TO [CustID]) AS [Product Purchases]`},
	{"Sequence_Analysis", `CREATE MINING MODEL [Seq] (
			[Customer ID] LONG KEY,
			[Visits] TABLE([Page] TEXT KEY, [Step] LONG SEQUENCE_TIME) PREDICT
		) USING [Sequence_Analysis]`,
		`INSERT INTO [Seq] ([Customer ID], [Visits]([Page], [Step]))
		SHAPE {SELECT [Customer ID] FROM Customers ORDER BY [Customer ID]}
		APPEND ({SELECT CustID, Page, Step FROM Visits ORDER BY CustID}
			RELATE [Customer ID] TO [CustID]) AS [Visits]`},
}

// TestEveryServiceTrains (E3): INSERT INTO "corresponds to consuming the
// observation represented by a case" — every bundled service consumes every
// case of its caseset through that one statement, at each size.
func TestEveryServiceTrains(t *testing.T) {
	for _, n := range []int{50, 100, 200} {
		for _, m := range serviceModels {
			p, _ := claimWarehouse(t, n)
			mustExec(t, p, m.create)
			if got := mustExec(t, p, m.insert).Row(0)[0]; got != int64(n) {
				t.Errorf("%s at %d customers: cases consumed = %v", m.service, n, got)
			}
		}
	}
}

// TestOnAndNaturalBindSameRows (E4): NATURAL PREDICTION JOIN "obviates the
// ON clause" when names line up, so both spellings return the same rows; a
// nested SHAPE input predicts one row per case.
func TestOnAndNaturalBindSameRows(t *testing.T) {
	const customers = 300
	p, _ := claimWarehouse(t, customers)
	mustExec(t, p, serviceModels[0].create)
	mustExec(t, p, serviceModels[0].insert)
	on := mustExec(t, p, `SELECT t.[Customer ID], Predict([Age]) FROM [Trees]
		PREDICTION JOIN (SELECT [Customer ID], Gender FROM Customers) AS t
		ON [Trees].Gender = t.Gender`)
	natural := mustExec(t, p, `SELECT t.[Customer ID], Predict([Age]) FROM [Trees]
		NATURAL PREDICTION JOIN (SELECT [Customer ID], Gender FROM Customers) AS t`)
	if on.Len() != customers || !reflect.DeepEqual(on.Rows(), natural.Rows()) {
		t.Errorf("ON gave %d rows, NATURAL %d; the rows differ", on.Len(), natural.Len())
	}
	nested := mustExec(t, p, `SELECT t.[Customer ID], Predict([Age]) FROM [Trees]
		NATURAL PREDICTION JOIN (SHAPE {SELECT [Customer ID], Gender FROM Customers ORDER BY [Customer ID]}
		APPEND ({SELECT CustID, [Product Name] FROM Sales ORDER BY CustID}
			RELATE [Customer ID] TO [CustID]) AS [Product Purchases]) AS t`)
	if nested.Len() != customers {
		t.Errorf("nested input predicted %d rows, want %d", nested.Len(), customers)
	}
}

// readPMML is the reader side of the PMML round trip: the model name of a
// [m].PMML document and the number of content nodes it holds.
func readPMML(doc string) (name string, nodes int, err error) {
	dec := xml.NewDecoder(strings.NewReader(doc))
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return name, nodes, nil
		}
		if err != nil {
			return "", 0, err
		}
		el, ok := tok.(xml.StartElement)
		if !ok {
			continue
		}
		switch el.Name.Local {
		case "MiningModel":
			for _, a := range el.Attr {
				if a.Name.Local == "name" {
					name = a.Value
				}
			}
		case "Node":
			nodes++
		}
	}
}

// TestContentAndPMMLRoundTrip (E5): model content is browsed as a graph
// through [m].CONTENT and persisted as PMML; both hold every node of the
// trained graph, and a smaller MINIMUM_SUPPORT never shrinks the tree.
func TestContentAndPMMLRoundTrip(t *testing.T) {
	prev := 0
	for _, support := range []int{64, 16, 4} {
		p, _ := claimWarehouse(t, 300)
		mustExec(t, p, fmt.Sprintf(`CREATE MINING MODEL [Support] (
			[Customer ID] LONG KEY, [Gender] TEXT DISCRETE,
			[Age] DOUBLE DISCRETIZED PREDICT,
			[Product Purchases] TABLE([Product Name] TEXT KEY)
		) USING [Decision_Trees] (MINIMUM_SUPPORT = %d)`, support))
		mustExec(t, p, strings.ReplaceAll(serviceModels[0].insert, "[Trees]", "[Support]"))
		m, err := p.Model("Support")
		if err != nil {
			t.Fatal(err)
		}
		want := m.Trained.Content().Count()
		if rows := mustExec(t, p, "SELECT * FROM [Support].CONTENT").Len(); rows != want {
			t.Errorf("MINIMUM_SUPPORT %d: CONTENT has %d rows, the graph %d nodes", support, rows, want)
		}
		name, nodes, err := readPMML(mustExec(t, p, "SELECT * FROM [Support].PMML").Row(0)[0].(string))
		if err != nil || name != "Support" || nodes != want {
			t.Errorf("MINIMUM_SUPPORT %d: PMML reads back %q with %d nodes (%v), want %d", support, name, nodes, err, want)
		}
		if want < prev {
			t.Errorf("MINIMUM_SUPPORT %d: %d nodes, fewer than the %d at a larger support", support, want, prev)
		}
		prev = want
	}
}

// TestDiscretizationMethodsScore (E6): DISCRETIZED values become ordered
// states by the provider's policy; with every policy, the predicted age
// bucket of a held-out customer holds the true age at least 30% of the time
// (chance is 25% for four buckets).
func TestDiscretizationMethodsScore(t *testing.T) {
	const customers, holdout = 300, 60
	for _, method := range []string{"EQUAL_RANGES", "EQUAL_AREAS", "ENTROPY"} {
		p, truth := claimWarehouse(t, customers)
		mustExec(t, p, fmt.Sprintf(`CREATE MINING MODEL [Buckets] (
			[Customer ID] LONG KEY, [Gender] TEXT DISCRETE,
			[Archetype Hint] TEXT DISCRETE PREDICT,
			[Age] DOUBLE DISCRETIZED(%s, 4) PREDICT
		) USING [Decision_Trees]`, method))
		// The archetype hint gives ENTROPY labels to cut against.
		mustExec(t, p, "CREATE TABLE Hints (HID LONG, Hint TEXT)")
		hints, err := p.DB.Table("Hints")
		if err != nil {
			t.Fatal(err)
		}
		for id := int64(1); id <= customers; id++ {
			if err := hints.Insert(rowset.Row{id, truth.ArchetypeOf[id].String()}); err != nil {
				t.Fatal(err)
			}
		}
		mustExec(t, p, fmt.Sprintf(`INSERT INTO [Buckets] ([Customer ID], [Gender], [Archetype Hint], [Age])
			SELECT c.[Customer ID], c.Gender, h.Hint, c.Age
			FROM Customers c JOIN Hints h ON c.[Customer ID] = h.HID
			WHERE c.[Customer ID] > %d`, holdout))
		m, err := p.Model("Buckets")
		if err != nil {
			t.Fatal(err)
		}
		age, _ := m.Space.Lookup("Age")
		cuts := m.Space.Attr(age).Cuts
		labels := core.BucketLabels(cuts)
		pred := mustExec(t, p, fmt.Sprintf(`SELECT t.[Customer ID], Predict([Age]) FROM [Buckets]
			NATURAL PREDICTION JOIN (SELECT c.[Customer ID], c.Gender, h.Hint AS [Archetype Hint]
				FROM Customers c JOIN Hints h ON c.[Customer ID] = h.HID
				WHERE c.[Customer ID] <= %d) AS t`, holdout))
		correct := 0
		for _, r := range pred.Rows() {
			v, b := truth.AgeOf[r[0].(int64)], 0
			for b < len(cuts) && v > cuts[b] {
				b++
			}
			if r[1] == labels[b] {
				correct++
			}
		}
		if acc := float64(correct) / holdout; pred.Len() != holdout || acc < 0.3 {
			t.Errorf("%s: %d predictions, bucket accuracy %.3f, want %d and ≥ 0.3", method, pred.Len(), acc, holdout)
		}
	}
}

// TestServicesRecoverPlantedStructure (E8): the API caters "to all
// well-known mining models" — each bundled service recovers the structure
// planted in the warehouse through the same CREATE / INSERT INTO /
// PREDICTION JOIN statements.
func TestServicesRecoverPlantedStructure(t *testing.T) {
	const customers, holdout = 900, 180
	p, truth := claimWarehouse(t, customers)

	// Gender from age: only the professional archetype skews male, so the
	// ceiling is ~0.57; both classifiers must beat the 0.5 base rate.
	for _, service := range []string{"Decision_Trees", "Naive_Bayes"} {
		mustExec(t, p, fmt.Sprintf(`CREATE MINING MODEL [Gender %s] (
			[Customer ID] LONG KEY, [Age] DOUBLE CONTINUOUS, [Gender] TEXT DISCRETE PREDICT
		) USING [%s]`, service, service))
		mustExec(t, p, fmt.Sprintf(`INSERT INTO [Gender %s] ([Customer ID], [Age], [Gender])
			SELECT [Customer ID], Age, Gender FROM Customers WHERE [Customer ID] > %d`, service, holdout))
		pred := mustExec(t, p, fmt.Sprintf(`SELECT t.[Customer ID], Predict([Gender]) FROM [Gender %s]
			NATURAL PREDICTION JOIN (SELECT [Customer ID], Age FROM Customers
				WHERE [Customer ID] <= %d) AS t`, service, holdout))
		correct := 0
		for _, r := range pred.Rows() {
			if r[1] == truth.GenderOf[r[0].(int64)] {
				correct++
			}
		}
		if acc := float64(correct) / holdout; pred.Len() != holdout || acc < 0.51 {
			t.Errorf("%s: %d predictions, gender accuracy %.3f, want %d and ≥ 0.51", service, pred.Len(), acc, holdout)
		}
	}

	// Clustering: each cluster is mostly one planted archetype.
	mustExec(t, p, `CREATE MINING MODEL [Segments] (
		[Customer ID] LONG KEY, [Age] DOUBLE CONTINUOUS,
		[Product Purchases] TABLE([Product Name] TEXT KEY)
	) USING [Clustering] (CLUSTER_COUNT = 3)`)
	basket := `SHAPE {SELECT [Customer ID], Age FROM Customers ORDER BY [Customer ID]}
		APPEND ({SELECT CustID, [Product Name] FROM Sales ORDER BY CustID}
			RELATE [Customer ID] TO [CustID]) AS [Product Purchases]`
	mustExec(t, p, `INSERT INTO [Segments] ([Customer ID], [Age], [Product Purchases]([Product Name])) `+basket)
	clusters := mustExec(t, p, `SELECT t.[Customer ID], Cluster() FROM [Segments] NATURAL PREDICTION JOIN (`+basket+`) AS t`)
	counts := map[string]map[workload.Archetype]int{}
	for _, r := range clusters.Rows() {
		c := r[1].(string)
		if counts[c] == nil {
			counts[c] = map[workload.Archetype]int{}
		}
		counts[c][truth.ArchetypeOf[r[0].(int64)]]++
	}
	majority := 0
	for _, byArchetype := range counts {
		best := 0
		for _, n := range byArchetype {
			best = max(best, n)
		}
		majority += best
	}
	if purity := float64(majority) / customers; clusters.Len() != customers || purity < 0.5 {
		t.Errorf("%d cases clustered, purity %.3f, want %d and ≥ 0.5", clusters.Len(), purity, customers)
	}

	// Association rules: a Beer basket recommends Chips first.
	mustExec(t, p, `CREATE MINING MODEL [Baskets] (
		[Customer ID] LONG KEY,
		[Product Purchases] TABLE([Product Name] TEXT KEY) PREDICT
	) USING [Association_Rules] (MINIMUM_SUPPORT = 0.05, MINIMUM_PROBABILITY = 0.5)`)
	mustExec(t, p, `INSERT INTO [Baskets] ([Customer ID], [Product Purchases]([Product Name]))
		SHAPE {SELECT [Customer ID] FROM Customers ORDER BY [Customer ID]}
		APPEND ({SELECT CustID, [Product Name] FROM Sales ORDER BY CustID}
			RELATE [Customer ID] TO [CustID]) AS [Product Purchases]`)
	rec := mustExec(t, p, `SELECT Predict([Product Purchases], 1) AS r FROM [Baskets]
		NATURAL PREDICTION JOIN
		(SHAPE {SELECT 1 AS [Customer ID]}
		 APPEND ({SELECT 1 AS CustID, 'Beer' AS [Product Name]}
			RELATE [Customer ID] TO [CustID]) AS [Product Purchases]) AS t`).Row(0)[0].(*rowset.Rowset)
	if rec.Len() == 0 || rec.Row(0)[0] != "Chips" {
		t.Errorf("Beer basket recommends %v, want Chips first", rec.Rows())
	}

	// Linear regression: archetype baskets pin age to ~22/38/48, so the
	// held-out error is well under the ~9-year spread of guessing the mean.
	mustExec(t, p, `CREATE MINING MODEL [Ages] (
		[Customer ID] LONG KEY, [Gender] TEXT DISCRETE,
		[Product Purchases] TABLE([Product Name] TEXT KEY),
		[Age] DOUBLE CONTINUOUS PREDICT
	) USING [Linear_Regression]`)
	mustExec(t, p, fmt.Sprintf(`INSERT INTO [Ages] ([Customer ID], [Gender], [Age], [Product Purchases]([Product Name]))
		SHAPE {SELECT [Customer ID], Gender, Age FROM Customers WHERE [Customer ID] > %d ORDER BY [Customer ID]}
		APPEND ({SELECT CustID, [Product Name] FROM Sales ORDER BY CustID}
			RELATE [Customer ID] TO [CustID]) AS [Product Purchases]`, holdout))
	ages := mustExec(t, p, fmt.Sprintf(`SELECT t.[Customer ID], Predict([Age]) FROM [Ages]
		NATURAL PREDICTION JOIN
		(SHAPE {SELECT [Customer ID], Gender FROM Customers WHERE [Customer ID] <= %d ORDER BY [Customer ID]}
		 APPEND ({SELECT CustID, [Product Name] FROM Sales ORDER BY CustID}
			RELATE [Customer ID] TO [CustID]) AS [Product Purchases]) AS t`, holdout))
	var absErr float64
	for _, r := range ages.Rows() {
		got, _ := r[1].(float64)
		d := got - truth.AgeOf[r[0].(int64)]
		absErr += max(d, -d)
	}
	if mae := absErr / holdout; ages.Len() != holdout || mae > 8 {
		t.Errorf("%d age predictions, MAE %.2f years, want %d and ≤ 8", ages.Len(), mae, holdout)
	}

	// Sequence analysis: the most likely next page after each planted page
	// is the planted one.
	mustExec(t, p, serviceModels[5].create)
	mustExec(t, p, serviceModels[5].insert)
	mustExec(t, p, "CREATE TABLE SeqProbe (CustID LONG, Page TEXT, Step LONG)")
	if len(truth.NextPage) != 3 {
		t.Fatalf("planted transitions = %v, want 3", truth.NextPage)
	}
	for from, want := range truth.NextPage {
		mustExec(t, p, "DELETE FROM SeqProbe")
		mustExec(t, p, fmt.Sprintf("INSERT INTO SeqProbe VALUES (1, '%s', 0)", from))
		next := mustExec(t, p, `SELECT Predict([Visits], 1) AS nxt FROM [Seq]
			NATURAL PREDICTION JOIN
			(SHAPE {SELECT 1 AS [Customer ID]}
			 APPEND ({SELECT CustID, Page, Step FROM SeqProbe ORDER BY CustID}
				RELATE [Customer ID] TO [CustID]) AS [Visits]) AS t`).Row(0)[0].(*rowset.Rowset)
		if next.Len() == 0 || next.Row(0)[0] != want {
			t.Errorf("after %q the model predicts %v, want %q", from, next.Rows(), want)
		}
	}
}

// TestPaperStatementsVerbatim (E10): the three listings Sections 3.2–3.3
// print — comments, the Decision_Trees_101 service name and the lower-case
// "To" included — run unmodified against the generated warehouse, and the
// lifecycle around them (CONTENT, DELETE FROM, DROP) completes.
func TestPaperStatementsVerbatim(t *testing.T) {
	const customers = 300
	p, _ := claimWarehouse(t, customers)
	mustExec(t, p, `CREATE MINING MODEL [Age Prediction] (
	%Name of Model
	[Customer ID] LONG KEY,
	[Gender] TEXT DISCRETE,
	[Age] DOUBLE DISCRETIZED PREDICT, %prediction column
	[Product Purchases] TABLE(
		[Product Name] TEXT KEY,
		[Quantity] DOUBLE NORMAL CONTINUOUS,
		[Product Type] TEXT DISCRETE RELATED TO [Product Name]
	)) USING [Decision_Trees_101]`)
	if got := mustExec(t, p, `INSERT INTO [Age Prediction] ([Customer ID], [Gender], [Age],
	[Product Purchases]([Product Name], [Quantity], [Product Type]))
SHAPE
	{SELECT [Customer ID], [Gender], [Age] FROM Customers
	ORDER BY [Customer ID]} APPEND (
	{SELECT [CustID], [Product Name], [Quantity], [Product Type] FROM Sales ORDER BY [CustID]}
	RELATE [Customer ID] To [CustID]) AS [Product Purchases]`).Row(0)[0]; got != int64(customers) {
		t.Errorf("INSERT INTO consumed %v cases, want %d", got, customers)
	}
	pred := mustExec(t, p, `SELECT t.[Customer ID], [Age Prediction].[Age]
FROM [Age Prediction]
PREDICTION JOIN (SHAPE {
	SELECT [Customer ID], [Gender] FROM Customers ORDER BY [Customer ID]}
	APPEND ({SELECT [CustID], [Product Name], [Quantity] FROM Sales
	ORDER BY [CustID]}
	RELATE [Customer ID] To [CustID]) AS [Product Purchases]) as t
ON [Age Prediction].Gender = t.Gender and
	[Age Prediction].[Product Purchases].[Product Name] = t.[Product Purchases].[Product Name] and
	[Age Prediction].[Product Purchases].[Quantity] = t.[Product Purchases].[Quantity]`)
	if pred.Len() != customers {
		t.Errorf("the prediction join returned %d predictions, want %d", pred.Len(), customers)
	}
	if mustExec(t, p, "SELECT * FROM [Age Prediction].CONTENT").Len() == 0 {
		t.Error("CONTENT of the trained model is empty")
	}
	mustExec(t, p, "DELETE FROM [Age Prediction]")
	mustExec(t, p, "DROP MINING MODEL [Age Prediction]")
	if _, err := p.Model("Age Prediction"); err == nil {
		t.Error("the model is still in the catalog after DROP")
	}
}
