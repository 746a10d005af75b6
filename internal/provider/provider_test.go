package provider

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dmx"
	"repro/internal/lex"
	"repro/internal/rowset"
	"repro/internal/schemarowset"
)

// setupCustomerData stages the paper's Customers/Sales schema with a planted
// signal: males are older (~45) and buy Beer; females are younger (~25) and
// buy Wine; everyone may buy a TV.
func setupCustomerData(t testing.TB, p *Provider, n int) {
	t.Helper()
	mustExec(t, p, "CREATE TABLE Customers ([Customer ID] LONG, Gender TEXT, Age DOUBLE)")
	mustExec(t, p, "CREATE TABLE Sales (CustID LONG, [Product Name] TEXT, Quantity DOUBLE, [Product Type] TEXT)")
	rng := rand.New(rand.NewSource(77))
	var cust, sales strings.Builder
	cust.WriteString("INSERT INTO Customers VALUES ")
	sales.WriteString("INSERT INTO Sales VALUES ")
	firstSale := true
	for i := 1; i <= n; i++ {
		gender, age, drink := "Male", 45+rng.NormFloat64()*4, "Beer"
		if i%2 == 0 {
			gender, age, drink = "Female", 25+rng.NormFloat64()*4, "Wine"
		}
		if i > 1 {
			cust.WriteString(", ")
		}
		fmt.Fprintf(&cust, "(%d, '%s', %.2f)", i, gender, age)
		if !firstSale {
			sales.WriteString(", ")
		}
		firstSale = false
		fmt.Fprintf(&sales, "(%d, '%s', %d, 'Beverage')", i, drink, 1+rng.Intn(5))
		if rng.Float64() < 0.5 {
			fmt.Fprintf(&sales, ", (%d, 'TV', 1, 'Electronic')", i)
		}
	}
	mustExec(t, p, cust.String())
	mustExec(t, p, sales.String())
}

func mustExec(t testing.TB, p *Provider, cmd string) *rowset.Rowset {
	t.Helper()
	rs, err := p.Execute(cmd)
	if err != nil {
		t.Fatalf("Execute(%.80q...): %v", cmd, err)
	}
	return rs
}

const createAgeModel = `CREATE MINING MODEL [Age Prediction] (
	[Customer ID] LONG KEY,
	[Gender] TEXT DISCRETE,
	[Age] DOUBLE DISCRETIZED PREDICT,
	[Product Purchases] TABLE(
		[Product Name] TEXT KEY,
		[Quantity] DOUBLE NORMAL CONTINUOUS,
		[Product Type] TEXT DISCRETE RELATED TO [Product Name]
	)
) USING [Decision_Trees_101]`

const insertAgeModel = `INSERT INTO [Age Prediction] (
	[Customer ID], [Gender], [Age],
	[Product Purchases]([Product Name], [Quantity], [Product Type]))
SHAPE
	{SELECT [Customer ID], [Gender], [Age] FROM Customers ORDER BY [Customer ID]}
	APPEND (
		{SELECT [CustID], [Product Name], [Quantity], [Product Type] FROM Sales ORDER BY [CustID]}
		RELATE [Customer ID] To [CustID]) AS [Product Purchases]`

// TestPaperRunningExample executes, nearly verbatim, every statement of the
// paper's running example (Sections 3.2 and 3.3): create, populate via
// SHAPE, and prediction-join with the multi-part ON clause.
func TestPaperRunningExample(t *testing.T) {
	p := MustNew()
	setupCustomerData(t, p, 200)

	mustExec(t, p, createAgeModel)
	rs := mustExec(t, p, insertAgeModel)
	if rs.Row(0)[0] != int64(200) {
		t.Fatalf("cases consumed = %v", rs.Row(0))
	}

	out := mustExec(t, p, `SELECT t.[Customer ID], [Age Prediction].[Age]
FROM [Age Prediction]
PREDICTION JOIN (SHAPE {
	SELECT [Customer ID], [Gender] FROM Customers ORDER BY [Customer ID]}
	APPEND ({SELECT [CustID], [Product Name], [Quantity] FROM Sales ORDER BY [CustID]}
	RELATE [Customer ID] To [CustID]) AS [Product Purchases]) as t
ON [Age Prediction].Gender = t.Gender and
	[Age Prediction].[Product Purchases].[Product Name] = t.[Product Purchases].[Product Name] and
	[Age Prediction].[Product Purchases].[Quantity] = t.[Product Purchases].[Quantity]`)
	if out.Len() != 200 {
		t.Fatalf("prediction rows = %d", out.Len())
	}
	// The Age column is DISCRETIZED: predictions are bucket labels. Check
	// that male and female customers land in different age buckets.
	maleBucket, femaleBucket := "", ""
	for i := 0; i < out.Len(); i++ {
		id := out.Row(i)[0].(int64)
		bucket := out.Row(i)[1].(string)
		if id%2 == 1 && maleBucket == "" {
			maleBucket = bucket
		}
		if id%2 == 0 && femaleBucket == "" {
			femaleBucket = bucket
		}
	}
	if maleBucket == femaleBucket {
		t.Errorf("male and female age buckets identical (%q); model learned nothing", maleBucket)
	}
}

func TestNaturalPredictionJoinWithUDFs(t *testing.T) {
	p := MustNew()
	setupCustomerData(t, p, 200)
	mustExec(t, p, createAgeModel)
	mustExec(t, p, insertAgeModel)

	out := mustExec(t, p, `SELECT
		Predict([Age]) AS est,
		PredictProbability([Age]) AS prob,
		PredictSupport([Age]) AS supp,
		t.Gender
	FROM [Age Prediction] NATURAL PREDICTION JOIN
		(SELECT 'Male' AS Gender) AS t`)
	if out.Len() != 1 {
		t.Fatalf("rows = %d", out.Len())
	}
	r := out.Row(0)
	prob := r[1].(float64)
	if prob <= 0.3 || prob > 1 {
		t.Errorf("prob = %v", prob)
	}
	if r[2].(float64) <= 0 {
		t.Errorf("support = %v", r[2])
	}
	if r[3] != "Male" {
		t.Errorf("passthrough gender = %v", r[3])
	}
}

func TestPredictHistogramAndTopCount(t *testing.T) {
	p := MustNew()
	setupCustomerData(t, p, 200)
	mustExec(t, p, createAgeModel)
	mustExec(t, p, insertAgeModel)

	out := mustExec(t, p, `SELECT PredictHistogram([Age]) AS h
	FROM [Age Prediction] NATURAL PREDICTION JOIN (SELECT 'Female' AS Gender) AS t`)
	h := out.Row(0)[0].(*rowset.Rowset)
	if h.Len() < 2 {
		t.Fatalf("histogram rows = %d", h.Len())
	}
	var sum float64
	for _, r := range h.Rows() {
		sum += r[1].(float64)
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("histogram prob sum = %v", sum)
	}

	out = mustExec(t, p, `SELECT TopCount(PredictHistogram([Age]), [$PROBABILITY], 2) AS top2
	FROM [Age Prediction] NATURAL PREDICTION JOIN (SELECT 'Female' AS Gender) AS t`)
	top := out.Row(0)[0].(*rowset.Rowset)
	if top.Len() != 2 {
		t.Fatalf("top2 rows = %d", top.Len())
	}
	if top.Row(0)[1].(float64) < top.Row(1)[1].(float64) {
		t.Error("TopCount not sorted by probability")
	}
}

func TestPredictionWhereAndTop(t *testing.T) {
	p := MustNew()
	setupCustomerData(t, p, 100)
	mustExec(t, p, createAgeModel)
	mustExec(t, p, insertAgeModel)

	all := mustExec(t, p, `SELECT t.[Customer ID] FROM [Age Prediction]
		NATURAL PREDICTION JOIN (SELECT [Customer ID], Gender FROM Customers) AS t
		WHERE PredictProbability([Age]) > 0.3`)
	if all.Len() == 0 {
		t.Fatal("where filtered everything")
	}
	top := mustExec(t, p, `SELECT TOP 5 t.[Customer ID] FROM [Age Prediction]
		NATURAL PREDICTION JOIN (SELECT [Customer ID], Gender FROM Customers) AS t`)
	if top.Len() != 5 {
		t.Errorf("top rows = %d", top.Len())
	}
}

func TestMarketBasketAssociation(t *testing.T) {
	p := MustNew()
	mustExec(t, p, "CREATE TABLE Orders (OrderID LONG, Item TEXT)")
	var b strings.Builder
	b.WriteString("INSERT INTO Orders VALUES ")
	for i := 1; i <= 120; i++ {
		if i > 1 {
			b.WriteString(", ")
		}
		if i%2 == 0 {
			fmt.Fprintf(&b, "(%d, 'beer'), (%d, 'chips')", i, i)
		} else {
			fmt.Fprintf(&b, "(%d, 'milk')", i)
		}
	}
	mustExec(t, p, b.String())
	mustExec(t, p, `CREATE MINING MODEL [Basket] (
		[OrderID] LONG KEY,
		[Items] TABLE([Item] TEXT KEY) PREDICT
	) USING [Association_Rules] (MINIMUM_SUPPORT = 0.1, MINIMUM_PROBABILITY = 0.5)`)
	mustExec(t, p, `INSERT INTO [Basket] ([OrderID], [Items]([Item]))
		SHAPE {SELECT DISTINCT OrderID FROM Orders ORDER BY OrderID}
		APPEND ({SELECT OrderID AS OID, Item FROM Orders ORDER BY OID}
			RELATE [OrderID] TO [OID]) AS [Items]`)

	// "The set of products the customer is likely to buy."
	out := mustExec(t, p, `SELECT Predict([Items], 2) AS recs
	FROM [Basket] NATURAL PREDICTION JOIN
		(SHAPE {SELECT 1 AS OrderID}
		 APPEND ({SELECT 1 AS OID, 'beer' AS Item} RELATE [OrderID] TO [OID]) AS [Items]) AS t`)
	recs := out.Row(0)[0].(*rowset.Rowset)
	if recs.Len() == 0 || recs.Row(0)[0] != "chips" {
		t.Fatalf("recommendations = %v", recs.Rows())
	}
	if recs.Len() > 2 {
		t.Errorf("max rows not applied: %d", recs.Len())
	}
}

func TestClusteringUDFs(t *testing.T) {
	p := MustNew()
	setupCustomerData(t, p, 100)
	mustExec(t, p, `CREATE MINING MODEL [Segments] (
		[Customer ID] LONG KEY,
		[Gender] TEXT DISCRETE,
		[Age] DOUBLE CONTINUOUS
	) USING [Clustering] (CLUSTER_COUNT = 2)`)
	mustExec(t, p, `INSERT INTO [Segments] ([Customer ID], [Gender], [Age])
		SELECT [Customer ID], Gender, Age FROM Customers`)

	out := mustExec(t, p, `SELECT Cluster() AS c, ClusterProbability() AS cp
	FROM [Segments] NATURAL PREDICTION JOIN (SELECT 'Male' AS Gender, 46.0 AS Age) AS t`)
	c := out.Row(0)[0].(string)
	if !strings.HasPrefix(c, "Cluster ") {
		t.Errorf("cluster = %v", c)
	}
	if cp := out.Row(0)[1].(float64); cp <= 0.5 {
		t.Errorf("cluster probability = %v", cp)
	}
	// Different inputs land in different clusters.
	out2 := mustExec(t, p, `SELECT Cluster() AS c
	FROM [Segments] NATURAL PREDICTION JOIN (SELECT 'Female' AS Gender, 24.0 AS Age) AS t`)
	if out2.Row(0)[0] == out.Row(0)[0] {
		t.Error("male/female landed in the same cluster")
	}
	// Cluster() on a non-clustering model errors.
	mustExec(t, p, createAgeModel)
	mustExec(t, p, insertAgeModel)
	if _, err := p.Execute(`SELECT Cluster() FROM [Age Prediction]
		NATURAL PREDICTION JOIN (SELECT 'Male' AS Gender) AS t`); err == nil {
		t.Error("Cluster() on tree model must fail")
	}
}

func TestContentAndColumnsSelect(t *testing.T) {
	p := MustNew()
	setupCustomerData(t, p, 100)
	mustExec(t, p, createAgeModel)

	if _, err := p.Execute("SELECT * FROM [Age Prediction].CONTENT"); err == nil {
		t.Error("content of unpopulated model must fail")
	}
	cols := mustExec(t, p, "SELECT * FROM [Age Prediction].COLUMNS")
	if cols.Len() != 7 { // 4 top-level + 3 nested
		t.Errorf("columns rows = %d", cols.Len())
	}

	mustExec(t, p, insertAgeModel)
	content := mustExec(t, p, "SELECT * FROM [Age Prediction].CONTENT")
	if content.Len() < 3 {
		t.Fatalf("content rows = %d", content.Len())
	}
	if v, _ := content.Value(0, "MODEL_NAME"); v != "Age Prediction" {
		t.Errorf("model name = %v", v)
	}
	if _, ok := content.Schema().Lookup("NODE_DISTRIBUTION"); !ok {
		t.Error("NODE_DISTRIBUTION column missing")
	}
}

func TestSchemaRowsets(t *testing.T) {
	p := MustNew()
	setupCustomerData(t, p, 50)
	mustExec(t, p, createAgeModel)

	models := mustExec(t, p, "SELECT * FROM [$SYSTEM].[MINING_MODELS]")
	if models.Len() != 1 {
		t.Fatalf("models = %d", models.Len())
	}
	if v, _ := models.Value(0, "IS_POPULATED"); v != false {
		t.Error("unpopulated model reported as populated")
	}
	mustExec(t, p, insertAgeModel)
	models = mustExec(t, p, "SELECT * FROM $SYSTEM.MINING_MODELS")
	if v, _ := models.Value(0, "IS_POPULATED"); v != true {
		t.Error("populated model reported as unpopulated")
	}
	if v, _ := models.Value(0, "CASE_COUNT"); v != int64(50) {
		t.Errorf("case count = %v", v)
	}

	services := mustExec(t, p, "SELECT * FROM $SYSTEM.MINING_SERVICES")
	if services.Len() < 4 {
		t.Errorf("services = %d", services.Len())
	}
	params := mustExec(t, p, "SELECT * FROM $SYSTEM.SERVICE_PARAMETERS")
	if params.Len() < 10 {
		t.Errorf("service parameters = %d", params.Len())
	}
	funcs := mustExec(t, p, "SELECT * FROM $SYSTEM.MINING_FUNCTIONS")
	if funcs.Len() < 8 {
		t.Errorf("functions = %d", funcs.Len())
	}
	allCols := mustExec(t, p, "SELECT * FROM $SYSTEM.MINING_COLUMNS")
	if allCols.Len() != 7 {
		t.Errorf("mining columns = %d", allCols.Len())
	}
	if _, err := p.Execute("SELECT * FROM $SYSTEM.NOPE"); err == nil {
		t.Error("unknown schema rowset must fail")
	}
}

// TestRowsetSelectClauses: a SELECT over a provider rowset is a SQL SELECT —
// its items, WHERE, GROUP BY, ORDER BY, DISTINCT and TOP are honoured, checked
// against what they compute by hand over the SELECT * rows, and a column,
// accessor or rowset that does not exist is an error, never ignored.
func TestRowsetSelectClauses(t *testing.T) {
	p := MustNew()
	setupCustomerData(t, p, 80)
	mustExec(t, p, createAgeModel)
	mustExec(t, p, insertAgeModel)

	// These clauses used to be parsed and dropped: every column, every row.
	if rs, err := p.Execute("SELECT TOP 1 MODEL_NAME FROM $SYSTEM.MINING_SERVICES"); err == nil ||
		!strings.Contains(err.Error(), "MODEL_NAME") {
		t.Errorf("unknown column: err = %v, result %v; want an unknown-column error", err, rs)
	}
	services := mustExec(t, p, "SELECT * FROM $SYSTEM.MINING_SERVICES")
	var names []string
	for _, r := range services.Rows() {
		names = append(names, r[0].(string))
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	top := mustExec(t, p, "SELECT TOP 2 SERVICE_NAME FROM $SYSTEM.MINING_SERVICES ORDER BY SERVICE_NAME DESC")
	if top.Schema().Len() != 1 || fmt.Sprint(top.Rows()) != fmt.Sprint([][]any{{names[0]}, {names[1]}}) {
		t.Errorf("TOP 2 ... ORDER BY DESC = %v, want %v", top.Rows(), names[:2])
	}

	// CONTENT: the children of the root node, largest first, and the node
	// count of every NODE_TYPE.
	content := mustExec(t, p, "SELECT * FROM [Age Prediction].CONTENT")
	col := func(rs *rowset.Rowset, name string) int {
		ord, ok := rs.Schema().Lookup(name)
		if !ok {
			t.Fatalf("no column %s in %v", name, rs.Schema())
		}
		return ord
	}
	uniq, parent, supp, typ := col(content, "NODE_UNIQUE_NAME"), col(content, "PARENT_UNIQUE_NAME"),
		col(content, "NODE_SUPPORT"), col(content, "NODE_TYPE")
	root := content.Row(0)[uniq].(string)
	var children []rowset.Row
	counts := map[int64]int64{}
	var types []int64
	for _, r := range content.Rows() {
		if r[parent] == root {
			children = append(children, rowset.Row{r[uniq], r[supp]})
		}
		nt := r[typ].(int64)
		if counts[nt] == 0 {
			types = append(types, nt)
		}
		counts[nt]++
	}
	sort.SliceStable(children, func(i, j int) bool {
		a, b := children[i][1].(float64), children[j][1].(float64)
		return a > b || a == b && children[i][0].(string) < children[j][0].(string)
	})
	if len(children) == 0 || len(types) < 2 {
		t.Fatalf("content fixture too small: %d children of the root, node types %v", len(children), types)
	}
	got := mustExec(t, p, fmt.Sprintf(`SELECT NODE_UNIQUE_NAME, NODE_SUPPORT FROM [Age Prediction].CONTENT
		WHERE PARENT_UNIQUE_NAME = '%s' ORDER BY NODE_SUPPORT DESC, NODE_UNIQUE_NAME`, root))
	if fmt.Sprint(got.Rows()) != fmt.Sprint(children) {
		t.Errorf("children of the root = %v, want %v", got.Rows(), children)
	}
	grouped := mustExec(t, p, "SELECT NODE_TYPE, COUNT(*) AS n FROM [Age Prediction].CONTENT GROUP BY NODE_TYPE")
	if grouped.Len() != len(types) {
		t.Errorf("GROUP BY NODE_TYPE: %d groups, want %d", grouped.Len(), len(types))
	}
	for i, r := range grouped.Rows() {
		if r[0] != types[i] || r[1] != counts[types[i]] {
			t.Errorf("GROUP BY NODE_TYPE row %d = %v, want [%d %d]", i, r, types[i], counts[types[i]])
		}
	}
	distinct := mustExec(t, p, "SELECT DISTINCT NODE_TYPE FROM [Age Prediction].CONTENT")
	if distinct.Len() != len(types) {
		t.Errorf("DISTINCT NODE_TYPE: %d rows, want %d", distinct.Len(), len(types))
	}

	// CASES: one attribute's values for the first cases in key order.
	cases := mustExec(t, p, "SELECT * FROM [Age Prediction].CASES")
	attr := cases.Row(0)[1].(string)
	var want []rowset.Row
	for _, r := range cases.Rows() {
		if r[1] == attr {
			want = append(want, rowset.Row{r[0], r[2]})
		}
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i][0].(string) < want[j][0].(string) })
	got = mustExec(t, p, fmt.Sprintf(`SELECT TOP 5 CASE_KEY, VALUE FROM [Age Prediction].CASES
		WHERE ATTRIBUTE = '%s' ORDER BY CASE_KEY`, attr))
	if fmt.Sprint(got.Rows()) != fmt.Sprint(want[:5]) {
		t.Errorf("CASES of %s = %v, want %v", attr, got.Rows(), want[:5])
	}

	// DM_QUERY_LOG: the most recent CONTENT statements, newest first, and the
	// statement kinds the log has seen.
	log := mustExec(t, p, "SELECT TOP 2 SEQ, KIND FROM $SYSTEM.DM_QUERY_LOG WHERE KIND = 'CONTENT' ORDER BY SEQ DESC")
	if log.Len() != 2 || log.Row(0)[1] != "CONTENT" || log.Row(0)[0].(int64) <= log.Row(1)[0].(int64) {
		t.Errorf("recent CONTENT statements = %v", log.Rows())
	}
	kinds := map[any]int{}
	for _, r := range mustExec(t, p, "SELECT DISTINCT KIND FROM $SYSTEM.DM_QUERY_LOG").Rows() {
		kinds[r[0]]++
	}
	for _, k := range []string{"SQL", "CREATE MODEL", "INSERT MODEL", "CONTENT", "CASES", "SCHEMA ROWSET"} {
		if kinds[k] != 1 {
			t.Errorf("DISTINCT KIND lists %q %d times, want once (%v)", k, kinds[k], kinds)
		}
	}

	// Names that do not exist are typed errors.
	var nf *core.NotFoundError
	for _, q := range []string{"SELECT * FROM $SYSTEM.NOPE", "SELECT * FROM [Nope].CONTENT"} {
		if _, err := p.Execute(q); !errors.As(err, &nf) {
			t.Errorf("%s: err = %v, want a *core.NotFoundError", q, err)
		}
	}
	var le *lex.Error
	if _, err := p.Execute("SELECT * FROM [Age Prediction].NOPE"); !errors.As(err, &le) {
		t.Errorf("unknown accessor: err = %v, want a *lex.Error", err)
	}
}

// TestRowsetSelectStar: SELECT * over a provider rowset returns the rowset its
// builder makes, schema and rows byte for byte, for every model accessor and
// every schema rowset. (Observability is off, so the rowsets built from the
// flight recorder and the query log compare their schemas.)
func TestRowsetSelectStar(t *testing.T) {
	p := MustNew(WithObsRegistry(nil))
	setupCustomerData(t, p, 40)
	mustExec(t, p, createAgeModel)
	mustExec(t, p, insertAgeModel)
	encode := func(rs *rowset.Rowset) string {
		var b bytes.Buffer
		if err := rs.Encode(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	check := func(model, name, from string) {
		want, err := p.providerRowset(model, name)
		if err != nil {
			t.Fatalf("%s: %v", from, err)
		}
		if got := mustExec(t, p, "SELECT * FROM "+from); encode(got) != encode(want) {
			t.Errorf("SELECT * FROM %s:\n got %v\nwant %v", from, got, want)
		}
	}
	for _, a := range dmx.Accessors {
		check("Age Prediction", a, "[Age Prediction]."+a)
	}
	for _, name := range schemarowset.Names() {
		check("", name, "$SYSTEM."+name)
	}
}

// TestRowsetKindsInQueryLog: each provider rowset logs the DM_QUERY_LOG.KIND it
// always has.
func TestRowsetKindsInQueryLog(t *testing.T) {
	p := MustNew()
	setupCustomerData(t, p, 30)
	mustExec(t, p, createAgeModel)
	mustExec(t, p, insertAgeModel)
	want := map[string]string{
		"SELECT * FROM [Age Prediction].CONTENT": "CONTENT",
		"SELECT * FROM [Age Prediction].COLUMNS": "COLUMNS",
		"SELECT * FROM [Age Prediction].CASES":   "CASES",
		"SELECT * FROM [Age Prediction].PMML":    "PMML",
		"SELECT * FROM $SYSTEM.MINING_MODELS":    "SCHEMA ROWSET",
	}
	for q := range want {
		mustExec(t, p, q)
	}
	log := mustExec(t, p, "SELECT STATEMENT, KIND FROM $SYSTEM.DM_QUERY_LOG")
	seen := 0
	for _, r := range log.Rows() {
		if k, ok := want[r[0].(string)]; ok {
			seen++
			if r[1] != k {
				t.Errorf("%s logged as %v, want %s", r[0], r[1], k)
			}
		}
	}
	if seen != len(want) {
		t.Errorf("%d of %d rowset statements logged", seen, len(want))
	}
}

// TestPreparedSystemQuery: a placeholder in the WHERE of a $SYSTEM query binds
// like one in any SELECT.
func TestPreparedSystemQuery(t *testing.T) {
	p := MustNew()
	setupCustomerData(t, p, 20)
	s := p.NewSession()
	defer s.Close()
	exec := func(q string) *rowset.Rowset {
		t.Helper()
		rs, err := s.Execute(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return rs
	}
	exec("PREPARE slow AS SELECT SEQ FROM $SYSTEM.DM_QUERY_LOG WHERE ELAPSED_US >= ? ORDER BY SEQ")
	if rs := exec("EXECUTE slow (0)"); rs.Len() == 0 {
		t.Error("no logged statement at or above 0us")
	}
	if rs := exec("EXECUTE slow (1000000000000)"); rs.Len() != 0 {
		t.Errorf("statements slower than 11 days: %v", rs.Rows())
	}
	if _, err := s.Execute(context.Background(), "EXECUTE slow"); err == nil {
		t.Error("EXECUTE without its argument must fail")
	}
}

// TestModelNamedSystem: only $SYSTEM names the schema-rowset namespace; a
// model called SYSTEM is a model like any other.
func TestModelNamedSystem(t *testing.T) {
	p := MustNew()
	setupCustomerData(t, p, 40)
	mustExec(t, p, strings.ReplaceAll(createAgeModel, "[Age Prediction]", "[SYSTEM]"))
	mustExec(t, p, strings.ReplaceAll(insertAgeModel, "[Age Prediction]", "[SYSTEM]"))
	if rs := mustExec(t, p, "SELECT * FROM [SYSTEM].CONTENT"); rs.Len() < 3 {
		t.Errorf("content rows = %d", rs.Len())
	}
	if rs := mustExec(t, p, "SELECT COLUMN_NAME FROM SYSTEM.COLUMNS"); rs.Len() != 7 {
		t.Errorf("columns rows = %d", rs.Len())
	}
	if rs := mustExec(t, p, "SELECT MODEL_NAME FROM [$SYSTEM].MINING_MODELS"); rs.Len() != 1 || rs.Row(0)[0] != "SYSTEM" {
		t.Errorf("models = %v", rs.Rows())
	}
}

func TestDeleteFromResetsModel(t *testing.T) {
	p := MustNew()
	setupCustomerData(t, p, 60)
	mustExec(t, p, createAgeModel)
	mustExec(t, p, insertAgeModel)
	if m, _ := p.Model("Age Prediction"); !m.IsTrained() {
		t.Fatal("model should be trained")
	}
	mustExec(t, p, "DELETE FROM [Age Prediction]")
	m, _ := p.Model("Age Prediction")
	if m.IsTrained() || m.CaseCount != 0 {
		t.Error("DELETE FROM must reset the model")
	}
	// Repopulate after reset.
	mustExec(t, p, insertAgeModel)
	if m, _ := p.Model("Age Prediction"); !m.IsTrained() {
		t.Error("reset model must retrain")
	}
}

func TestIncrementalInsertAccumulates(t *testing.T) {
	p := MustNew()
	setupCustomerData(t, p, 40)
	mustExec(t, p, createAgeModel)
	mustExec(t, p, insertAgeModel)
	mustExec(t, p, insertAgeModel) // same data again: cases double
	m, _ := p.Model("Age Prediction")
	if m.CaseCount != 80 {
		t.Errorf("case count after two inserts = %d want 80", m.CaseCount)
	}
}

func TestDropModel(t *testing.T) {
	p := MustNew()
	setupCustomerData(t, p, 30)
	mustExec(t, p, createAgeModel)
	mustExec(t, p, "DROP MINING MODEL [Age Prediction]")
	if p.IsModel("Age Prediction") {
		t.Error("model still catalogued after drop")
	}
	if _, err := p.Execute("DROP MINING MODEL [Age Prediction]"); err == nil {
		t.Error("double drop must fail")
	}
}

func TestCreateModelErrors(t *testing.T) {
	p := MustNew()
	if _, err := p.Execute(`CREATE MINING MODEL m ([ID] LONG KEY, [X] TEXT DISCRETE) USING [NoSuchAlgo]`); err == nil {
		t.Error("unknown algorithm must fail")
	}
	mustExec(t, p, `CREATE MINING MODEL m ([ID] LONG KEY, [X] TEXT DISCRETE PREDICT) USING [Naive_Bayes]`)
	if _, err := p.Execute(`CREATE MINING MODEL [M] ([ID] LONG KEY, [X] TEXT DISCRETE PREDICT) USING [Naive_Bayes]`); err == nil {
		t.Error("duplicate model (case-insensitive) must fail")
	}
}

func TestPredictBeforeTrainFails(t *testing.T) {
	p := MustNew()
	setupCustomerData(t, p, 10)
	mustExec(t, p, createAgeModel)
	if _, err := p.Execute(`SELECT Predict([Age]) FROM [Age Prediction]
		NATURAL PREDICTION JOIN (SELECT 'Male' AS Gender) AS t`); err == nil {
		t.Error("prediction on unpopulated model must fail")
	}
}

func TestSQLPassThrough(t *testing.T) {
	p := MustNew()
	setupCustomerData(t, p, 20)
	rs := mustExec(t, p, "SELECT COUNT(*) FROM Customers")
	if rs.Row(0)[0] != int64(20) {
		t.Errorf("sql passthrough = %v", rs.Row(0))
	}
}

func TestExecuteScript(t *testing.T) {
	p := MustNew()
	last, err := p.ExecuteScript(`
		CREATE TABLE T (a LONG);
		INSERT INTO T VALUES (1), (2);
		SELECT COUNT(*) FROM T;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if last.Row(0)[0] != int64(2) {
		t.Errorf("script result = %v", last.Row(0))
	}
	if _, err := p.ExecuteScript("SELECT 1; BOGUS"); err == nil {
		t.Error("bad script must fail")
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p := MustNew(WithDirectory(dir))
	setupCustomerData(t, p, 80)
	mustExec(t, p, createAgeModel)
	mustExec(t, p, insertAgeModel)
	if err := p.Save(); err != nil {
		t.Fatal(err)
	}
	want := mustExec(t, p, `SELECT Predict([Age]) FROM [Age Prediction]
		NATURAL PREDICTION JOIN (SELECT 'Male' AS Gender) AS t`)

	// Reopen from disk: tables, model, and trained state must survive.
	p2, err := New(WithDirectory(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !p2.IsModel("Age Prediction") {
		t.Fatal("model not loaded")
	}
	m, _ := p2.Model("Age Prediction")
	if !m.IsTrained() || m.CaseCount != 80 {
		t.Fatalf("loaded model: trained=%v cases=%d", m.IsTrained(), m.CaseCount)
	}
	got := mustExec(t, p2, `SELECT Predict([Age]) FROM [Age Prediction]
		NATURAL PREDICTION JOIN (SELECT 'Male' AS Gender) AS t`)
	if got.Row(0)[0] != want.Row(0)[0] {
		t.Errorf("prediction after reload = %v want %v", got.Row(0)[0], want.Row(0)[0])
	}
	// Tables loaded too.
	rs := mustExec(t, p2, "SELECT COUNT(*) FROM Customers")
	if rs.Row(0)[0] != int64(80) {
		t.Errorf("customers after reload = %v", rs.Row(0))
	}
	// Dropping removes the file; a third open must not see the model.
	mustExec(t, p2, "DROP MINING MODEL [Age Prediction]")
	p3, err := New(WithDirectory(dir))
	if err != nil {
		t.Fatal(err)
	}
	if p3.IsModel("Age Prediction") {
		t.Error("dropped model resurrected on reload")
	}
}

func TestNaiveBayesModelViaDMX(t *testing.T) {
	p := MustNew()
	setupCustomerData(t, p, 200)
	mustExec(t, p, `CREATE MINING MODEL [Gender Model] (
		[Customer ID] LONG KEY,
		[Age] DOUBLE CONTINUOUS,
		[Gender] TEXT DISCRETE PREDICT
	) USING [Naive_Bayes]`)
	mustExec(t, p, `INSERT INTO [Gender Model] ([Customer ID], [Age], [Gender])
		SELECT [Customer ID], Age, Gender FROM Customers`)
	out := mustExec(t, p, `SELECT Predict([Gender]) AS g, PredictProbability([Gender], 'Male') AS pm
	FROM [Gender Model] NATURAL PREDICTION JOIN (SELECT 46.0 AS Age) AS t`)
	if out.Row(0)[0] != "Male" {
		t.Errorf("gender(46) = %v", out.Row(0)[0])
	}
	if pm := out.Row(0)[1].(float64); pm < 0.8 {
		t.Errorf("P(Male|46) = %v", pm)
	}
}

func TestBindingBySkip(t *testing.T) {
	p := MustNew()
	mustExec(t, p, "CREATE TABLE Src (junk TEXT, id LONG, g TEXT)")
	mustExec(t, p, "INSERT INTO Src VALUES ('x', 1, 'a'), ('y', 2, 'b'), ('z', 3, 'a'), ('w', 4, 'a')")
	mustExec(t, p, `CREATE MINING MODEL [SkipModel] (
		[ID] LONG KEY, [G] TEXT DISCRETE PREDICT
	) USING [Naive_Bayes]`)
	// Positional binding with SKIP: junk is skipped, id→ID, g→G.
	mustExec(t, p, `INSERT INTO [SkipModel] (SKIP, [ID], [G]) SELECT junk, id, g FROM Src`)
	m, _ := p.Model("SkipModel")
	if m.CaseCount != 4 {
		t.Errorf("cases = %d", m.CaseCount)
	}
}

func TestCasesAccessor(t *testing.T) {
	p := MustNew()
	setupCustomerData(t, p, 30)
	mustExec(t, p, createAgeModel)
	mustExec(t, p, insertAgeModel)
	rs := mustExec(t, p, "SELECT * FROM [Age Prediction].CASES")
	if rs.Len() == 0 {
		t.Fatal("no case rows")
	}
	// One row per (case, present attribute); every case key appears.
	keys := map[string]bool{}
	sawPresent, sawBucket := false, false
	for _, r := range rs.Rows() {
		keys[r[0].(string)] = true
		if r[2] == "present" {
			sawPresent = true
		}
		if s, ok := r[2].(string); ok && strings.HasPrefix(s, "<=") {
			sawBucket = true
		}
		if r[4].(float64) <= 0 {
			t.Fatalf("non-positive weight: %v", r)
		}
	}
	if len(keys) != 30 {
		t.Errorf("distinct case keys = %d", len(keys))
	}
	if !sawPresent {
		t.Error("no existence attribute rendered as 'present'")
	}
	if !sawBucket {
		t.Error("no discretized bucket label rendered")
	}
	// Unknown model errors.
	if _, err := p.Execute("SELECT * FROM [Nope].CASES"); err == nil {
		t.Error("cases of unknown model must fail")
	}
}

func TestRangeFunctions(t *testing.T) {
	p := MustNew()
	setupCustomerData(t, p, 200)
	mustExec(t, p, createAgeModel)
	mustExec(t, p, insertAgeModel)
	out := mustExec(t, p, `SELECT RangeMin([Age]) AS lo, RangeMid([Age]) AS mid, RangeMax([Age]) AS hi
	FROM [Age Prediction] NATURAL PREDICTION JOIN (SELECT 'Male' AS Gender) AS t`)
	lo := out.Row(0)[0].(float64)
	mid := out.Row(0)[1].(float64)
	hi := out.Row(0)[2].(float64)
	if !(lo < mid && mid < hi) {
		t.Errorf("range = %v %v %v", lo, mid, hi)
	}
	// Bounds stay within the data range (ages ~20..60).
	if lo < 15 || hi > 65 {
		t.Errorf("bounds outside data range: %v %v", lo, hi)
	}
	// RangeMid on a non-discretized column fails.
	if _, err := p.Execute(`SELECT RangeMid([Gender]) FROM [Age Prediction]
		NATURAL PREDICTION JOIN (SELECT 'Male' AS Gender) AS t`); err == nil {
		t.Error("RangeMid on non-discretized column must fail")
	}
}

func TestConcurrentInsertAndPredict(t *testing.T) {
	p := MustNew()
	setupCustomerData(t, p, 120)
	mustExec(t, p, createAgeModel)
	mustExec(t, p, insertAgeModel)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := p.Execute(`SELECT Predict([Age]) FROM [Age Prediction]
					NATURAL PREDICTION JOIN (SELECT 'Male' AS Gender) AS t`); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if _, err := p.Execute(insertAgeModel); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := p.Execute("SELECT * FROM $SYSTEM.MINING_MODELS"); err != nil {
				errs <- err
				return
			}
			if _, err := p.Execute("SELECT * FROM [Age Prediction].CONTENT"); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestLinearRegressionViaDMX(t *testing.T) {
	p := MustNew()
	mustExec(t, p, "CREATE TABLE Houses (ID LONG, Sqft DOUBLE, Rooms DOUBLE, Price DOUBLE)")
	var b strings.Builder
	b.WriteString("INSERT INTO Houses VALUES ")
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 200; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		sqft := 50 + rng.Float64()*150
		rooms := float64(1 + rng.Intn(5))
		price := 1000*sqft + 20000*rooms + rng.NormFloat64()*5000
		fmt.Fprintf(&b, "(%d, %.1f, %.0f, %.0f)", i, sqft, rooms, price)
	}
	mustExec(t, p, b.String())
	mustExec(t, p, `CREATE MINING MODEL [Price Model] (
		[ID] LONG KEY,
		[Sqft] DOUBLE CONTINUOUS,
		[Rooms] DOUBLE CONTINUOUS,
		[Price] DOUBLE CONTINUOUS PREDICT
	) USING [Linear_Regression]`)
	mustExec(t, p, `INSERT INTO [Price Model] ([ID], [Sqft], [Rooms], [Price])
		SELECT ID, Sqft, Rooms, Price FROM Houses`)

	out := mustExec(t, p, `SELECT Predict([Price]) AS est, PredictStdev([Price]) AS rmse
	FROM [Price Model] NATURAL PREDICTION JOIN (SELECT 100.0 AS Sqft, 3.0 AS Rooms) AS t`)
	est := out.Row(0)[0].(float64)
	want := 1000*100.0 + 20000*3.0
	if est < want*0.95 || est > want*1.05 {
		t.Errorf("price(100sqft, 3rooms) = %v want ~%v", est, want)
	}
	if rmse := out.Row(0)[1].(float64); rmse > 10000 {
		t.Errorf("rmse = %v", rmse)
	}
	// The fitted equation is browsable.
	content := mustExec(t, p, "SELECT * FROM [Price Model].CONTENT")
	found := false
	for _, r := range content.Rows() {
		if s, ok := r[3].(string); ok && strings.Contains(s, "R²") {
			found = true
		}
	}
	if !found {
		t.Error("equation caption missing from content")
	}
}

func TestLoadRejectsCorruptModelFile(t *testing.T) {
	dir := t.TempDir()
	p := MustNew(WithDirectory(dir))
	mustExec(t, p, `CREATE MINING MODEL [Good] ([ID] LONG KEY, [X] TEXT DISCRETE PREDICT) USING [Naive_Bayes]`)
	// Corrupt the file on disk; reopening must fail loudly, not silently
	// drop the model.
	files, err := filepath.Glob(filepath.Join(dir, "models", "*.dmm"))
	if err != nil || len(files) != 1 {
		t.Fatalf("model files = %v, %v", files, err)
	}
	if err := os.WriteFile(files[0], []byte("corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(WithDirectory(dir)); err == nil {
		t.Error("corrupt model file must fail the load")
	}
}

func TestSaveWithoutDirectoryErrors(t *testing.T) {
	p := MustNew()
	if err := p.Save(); err == nil {
		t.Error("Save without a directory must fail")
	}
}

func TestSequenceAnalysisViaDMX(t *testing.T) {
	p := MustNew()
	mustExec(t, p, "CREATE TABLE Visits (SessionID LONG, Step LONG, Page TEXT)")
	// Planted navigation pattern: home → search → product → checkout.
	pages := []string{"home", "search", "product", "checkout"}
	var b strings.Builder
	b.WriteString("INSERT INTO Visits VALUES ")
	first := true
	for s := 1; s <= 80; s++ {
		length := 2 + s%3
		for step := 0; step <= length; step++ {
			if !first {
				b.WriteString(", ")
			}
			first = false
			fmt.Fprintf(&b, "(%d, %d, '%s')", s, step, pages[(s+step)%4])
		}
	}
	mustExec(t, p, b.String())
	mustExec(t, p, `CREATE MINING MODEL [Nav] (
		[SessionID] LONG KEY,
		[Pages] TABLE(
			[Page] TEXT KEY,
			[Step] LONG SEQUENCE_TIME
		) PREDICT
	) USING [Sequence_Analysis]`)
	mustExec(t, p, `INSERT INTO [Nav] ([SessionID], [Pages]([Page], [Step]))
		SHAPE {SELECT DISTINCT SessionID FROM Visits ORDER BY SessionID}
		APPEND ({SELECT SessionID AS SID, Page, Step FROM Visits ORDER BY SID}
			RELATE [SessionID] TO [SID]) AS [Pages]`)

	// A session currently on "search" should be headed to "product".
	mustExec(t, p, "CREATE TABLE Current (SID LONG, Page TEXT, Step LONG)")
	mustExec(t, p, "INSERT INTO Current VALUES (1, 'home', 0), (1, 'search', 1)")
	out := mustExec(t, p, `SELECT Predict([Pages], 2) AS nxt FROM [Nav]
	NATURAL PREDICTION JOIN
		(SHAPE {SELECT 1 AS SessionID}
		 APPEND ({SELECT SID, Page, Step FROM Current ORDER BY SID}
			RELATE [SessionID] TO [SID]) AS [Pages]) AS t`)
	nxt := out.Row(0)[0].(*rowset.Rowset)
	if nxt.Len() == 0 || nxt.Row(0)[0] != "product" {
		t.Fatalf("next page = %v", nxt.Rows())
	}
	if prob := nxt.Row(0)[1].(float64); prob < 0.8 {
		t.Errorf("transition prob = %v", prob)
	}
	// The transition graph is browsable.
	content := mustExec(t, p, "SELECT * FROM [Nav].CONTENT")
	if content.Len() < 5 {
		t.Errorf("content nodes = %d", content.Len())
	}
}

func TestPMMLAccessor(t *testing.T) {
	p := MustNew()
	setupCustomerData(t, p, 40)
	mustExec(t, p, createAgeModel)
	if _, err := p.Execute("SELECT * FROM [Age Prediction].PMML"); err == nil {
		t.Error("PMML of unpopulated model must fail")
	}
	mustExec(t, p, insertAgeModel)
	rs := mustExec(t, p, "SELECT * FROM [Age Prediction].PMML")
	if rs.Len() != 1 {
		t.Fatalf("rows = %d", rs.Len())
	}
	xmlDoc := rs.Row(0)[0].(string)
	for _, want := range []string{"<MiningModel", `name="Age Prediction"`, "<Node"} {
		if !strings.Contains(xmlDoc, want) {
			t.Errorf("PMML missing %q", want)
		}
	}
	// The document reads back.
	name, nodes, err := readPMML(xmlDoc)
	if err != nil || name != "Age Prediction" || nodes < 3 {
		t.Errorf("PMML reparse: %q, %d nodes, %v", name, nodes, err)
	}
}

func TestTrainFromView(t *testing.T) {
	// Section 3.1 of the paper: views are the mechanism that consolidates
	// entity data before mining. Define the caseset base as a view and
	// train through it — both as a SHAPE root and as a plain source.
	p := MustNew()
	setupCustomerData(t, p, 120)
	mustExec(t, p, `CREATE VIEW AdultCustomers AS
		SELECT [Customer ID], Gender, Age FROM Customers WHERE Age >= 21`)
	mustExec(t, p, `CREATE MINING MODEL [ViewModel] (
		[Customer ID] LONG KEY, [Gender] TEXT DISCRETE,
		[Age] DOUBLE DISCRETIZED PREDICT,
		[Product Purchases] TABLE([Product Name] TEXT KEY)
	) USING [Decision_Trees]`)
	rs := mustExec(t, p, `INSERT INTO [ViewModel] ([Customer ID], [Gender], [Age],
		[Product Purchases]([Product Name]))
	SHAPE {SELECT [Customer ID], Gender, Age FROM AdultCustomers ORDER BY [Customer ID]}
	APPEND ({SELECT CustID, [Product Name] FROM Sales ORDER BY CustID}
		RELATE [Customer ID] TO [CustID]) AS [Product Purchases]`)
	consumed := rs.Row(0)[0].(int64)
	if consumed == 0 || consumed > 120 {
		t.Fatalf("cases consumed via view = %d", consumed)
	}
	// Prediction join can source from the view too.
	out := mustExec(t, p, `SELECT TOP 3 t.[Customer ID], Predict([Age]) FROM [ViewModel]
		NATURAL PREDICTION JOIN (SELECT [Customer ID], Gender FROM AdultCustomers) AS t`)
	if out.Len() != 3 {
		t.Errorf("view-sourced predictions = %d", out.Len())
	}
}

func TestSequenceModelPersistence(t *testing.T) {
	dir := t.TempDir()
	p := MustNew(WithDirectory(dir))
	mustExec(t, p, "CREATE TABLE V (SID LONG, Step LONG, Page TEXT)")
	mustExec(t, p, `INSERT INTO V VALUES
		(1,0,'a'), (1,1,'b'), (2,0,'a'), (2,1,'b'), (3,0,'b'), (3,1,'c')`)
	mustExec(t, p, `CREATE MINING MODEL [SeqP] (
		[SID] LONG KEY,
		[Pages] TABLE([Page] TEXT KEY, [Step] LONG SEQUENCE_TIME) PREDICT
	) USING [Sequence_Analysis]`)
	mustExec(t, p, `INSERT INTO [SeqP] ([SID], [Pages]([Page], [Step]))
		SHAPE {SELECT DISTINCT SID FROM V ORDER BY SID}
		APPEND ({SELECT SID AS S2, Page, Step FROM V ORDER BY S2} RELATE [SID] TO [S2]) AS [Pages]`)
	if err := p.Save(); err != nil {
		t.Fatal(err)
	}

	p2, err := New(WithDirectory(dir))
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, p2, "CREATE TABLE Probe (S LONG, Page TEXT, Step LONG)")
	mustExec(t, p2, "INSERT INTO Probe VALUES (1, 'a', 0)")
	out := mustExec(t, p2, `SELECT Predict([Pages], 1) AS n FROM [SeqP]
		NATURAL PREDICTION JOIN
		(SHAPE {SELECT 1 AS SID}
		 APPEND ({SELECT S AS S2, Page, Step FROM Probe ORDER BY S2} RELATE [SID] TO [S2]) AS [Pages]) AS t`)
	nxt := out.Row(0)[0].(*rowset.Rowset)
	if nxt.Len() == 0 || nxt.Row(0)[0] != "b" {
		t.Errorf("reloaded sequence model prediction = %v", nxt.Rows())
	}
}
