package provider

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rowset"
)

// The golden corpus pins what a model *is* — its content graph, its PMML, the
// cases it kept and what it predicts for every row of a probe table — for all
// six mining services and the three discretization methods, over casesets that
// cover the tokenizer's whole surface: nested TABLE columns with existence and
// valued attributes, PROBABILITY/SUPPORT qualifiers at both levels,
// SEQUENCE_TIME, RELATED TO, NULLs, NOT_NULL violations, states and nested keys
// the model never saw, and positional, SKIP and by-name bindings. The files
// under testdata/golden were written by this test at the commit before cases
// became coded cell vectors; a change to the case path must reproduce them.
//
//	go test ./internal/provider -run TestGoldenModels -update
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current implementation")

// goldenData stages deterministic tables. Every weight, probability and
// measure is a multiple of 1/4, so sums of them are exact in float64 whatever
// order a trainer adds them in — except the [WFrac] column, which carries
// tenths for the one model that is compared with a tolerance.
func goldenData(t testing.TB, p *Provider) {
	t.Helper()
	mustExec(t, p, `CREATE TABLE GCust (ID LONG, Gender TEXT, Hair TEXT, Zip LONG, Age DOUBLE,
		Income DOUBLE, AgeProb DOUBLE, W DOUBLE, WFrac DOUBLE, Member TEXT)`)
	mustExec(t, p, `CREATE TABLE GSales (CustID LONG, Product TEXT, Qty DOUBLE, PType TEXT, QProb DOUBLE, Step LONG)`)
	hair := []string{"Black", "Brown", "Red", "Blond"}
	products := []struct{ name, ptype string }{
		{"Beer", "Beverage"}, {"Wine", "Beverage"}, {"TV", "Electronic"}, {"Ham", "Food"},
		{"Chips", "Food"}, {"Radio", "Electronic"},
	}
	null := func(cond bool, s string) string {
		if cond {
			return "NULL"
		}
		return s
	}
	var cust, sales []string
	seed := uint32(12345)
	next := func(n int) int { // LCG: the corpus must not depend on math/rand's stream
		seed = seed*1664525 + 1013904223
		return int(seed>>16) % n
	}
	for id := 1; id <= 90; id++ {
		male := id%2 == 1
		gender, age := "Female", 22+float64(next(40))/4
		if male {
			gender, age = "Male", 40+float64(next(48))/4
		}
		income := 20 + float64(next(12))*2.5 + age/2
		cust = append(cust, fmt.Sprintf("(%d, %s, '%s', %d, %s, %s, %g, %g, %g, %s)", id,
			null(id%17 == 0, "'"+gender+"'"), hair[next(4)], 98000+next(3),
			null(id%23 == 0, fmt.Sprint(age)), null(id%19 == 0, fmt.Sprint(income)),
			[]float64{1, 0.75, 0.5, 1}[next(4)], []float64{1, 2, 1, 3, 0.5}[next(5)],
			[]float64{0.3, 0.7, 1.1, 0.9}[next(4)], null(id%3 != 0, "'yes'")))
		first := 0
		if !male {
			first = 1
		}
		step := 0
		add := func(pi int) {
			pr := products[pi]
			sales = append(sales, fmt.Sprintf("(%d, '%s', %s, '%s', %g, %d)", id, pr.name,
				null((id+pi)%13 == 0, fmt.Sprint(1+next(5))), pr.ptype, []float64{1, 0.5, 0.25}[next(3)], step))
			step++
		}
		if id%11 != 0 { // some customers bought nothing: NULL nested table
			add(first)
			for pi := 2; pi < len(products); pi++ {
				if next(3) == 0 {
					add(pi)
				}
			}
			if next(4) == 0 {
				add(first) // a repeated nested key
			}
		}
	}
	mustExec(t, p, "INSERT INTO GCust VALUES "+strings.Join(cust, ", "))
	mustExec(t, p, "INSERT INTO GSales VALUES "+strings.Join(sales, ", "))
	// Probe rows: known and unseen states, unseen nested keys, NULLs.
	mustExec(t, p, `CREATE TABLE GProbe (ID LONG, Gender TEXT, Hair TEXT, Zip LONG, Age DOUBLE, Income DOUBLE, Member TEXT)`)
	mustExec(t, p, `INSERT INTO GProbe VALUES
		(1, 'Male', 'Black', 98000, 44.5, 50, 'yes'), (2, 'Female', 'Red', 98001, 25.25, 35, NULL),
		(3, 'Other', 'Green', 12345, 33, 41.5, 'yes'), (4, NULL, NULL, NULL, NULL, NULL, NULL),
		(5, 'Male', 'Blond', 98002, 61, 70, NULL), (6, 'Female', 'Brown', 98000, 18, 22.5, 'yes')`)
	mustExec(t, p, `CREATE TABLE GProbeSales (CustID LONG, Product TEXT, Qty DOUBLE, PType TEXT, QProb DOUBLE, Step LONG)`)
	mustExec(t, p, `INSERT INTO GProbeSales VALUES
		(1, 'Beer', 3, 'Beverage', 1, 0), (1, 'TV', 1, 'Electronic', 0.5, 1), (2, 'Wine', 2, 'Beverage', 1, 0),
		(2, 'Caviar', 1, 'Food', 1, 1), (3, 'Ham', NULL, 'Food', 0.25, 0), (3, 'Chips', 4, 'Food', 1, 1),
		(3, 'Radio', 2, 'Electronic', 1, 2), (5, 'Beer', 5, 'Beverage', 1, 1), (5, 'Wine', 1, 'Beverage', 1, 0)`)
}

const (
	goldenShape = `SHAPE {SELECT ID, Gender, Hair, Zip, Age, Income, AgeProb, W, WFrac, Member FROM GCust ORDER BY ID}
		APPEND ({SELECT CustID, Product, Qty, PType, QProb, Step FROM GSales ORDER BY CustID}
			RELATE [ID] TO [CustID]) AS [Purchases]`
	goldenProbeShape = `SHAPE {SELECT ID, Gender, Hair, Zip, Age, Income, Member FROM GProbe ORDER BY ID}
		APPEND ({SELECT CustID, Product, Qty, PType, QProb, Step FROM GProbeSales ORDER BY CustID}
			RELATE [ID] TO [CustID]) AS [Purchases]`
	goldenFlatProbe = `SELECT ID, Gender, Hair, Zip, Age, Income, Member FROM GProbe`
)

// goldenModel is one model of the corpus: how it is made, and what is asked
// of it afterwards.
type goldenModel struct {
	name    string
	create  string   // text after CREATE MINING MODEL [name]
	inserts []string // text after INSERT INTO [name]
	// predicts are SELECT lists; each runs as a NATURAL PREDICTION JOIN over
	// probe (the nested probe caseset unless flat).
	predicts []string
	flat     bool
	// on, when set, is one more prediction statement given whole (ON clause).
	on string
	// approx compares numbers to 1e-9 relative: the model's case weights are
	// not exact in binary, so the order a trainer adds them in shows.
	approx bool
}

var goldenModels = []goldenModel{
	{name: "G DT Nested", // positional binding, SKIP on both levels, RELATED TO
		create: `([ID] LONG KEY, [Gender] TEXT DISCRETE, [Age] DOUBLE DISCRETIZED PREDICT,
			[Purchases] TABLE([Product] TEXT KEY, [Qty] DOUBLE NORMAL CONTINUOUS, [PType] TEXT DISCRETE RELATED TO [Product]))
			USING [Decision_Trees_101] (MINIMUM_SUPPORT = 2)`,
		inserts: []string{`([ID], [Gender], SKIP, SKIP, [Age], SKIP, SKIP, SKIP, SKIP, SKIP,
			[Purchases](SKIP, [Product], [Qty], [PType], SKIP, SKIP)) ` + goldenShape},
		predicts: []string{`t.ID, Predict([Age]), PredictProbability([Age]), PredictSupport([Age]), PredictHistogram([Age]),
			RangeMin([Age]), RangeMid([Age]), RangeMax([Age])`},
		on: `SELECT t.ID, [G DT Nested].[Age] FROM [G DT Nested] PREDICTION JOIN (` + goldenProbeShape + `) AS t
			ON [G DT Nested].Gender = t.Gender AND [G DT Nested].[Purchases].[Product] = t.[Purchases].[Product]
			AND [G DT Nested].[Purchases].[Qty] = t.[Purchases].[Qty]`},
	{name: "G DT Regress", // continuous target and inputs, by-name binding, two INSERTs
		create: `([ID] LONG KEY, [Gender] TEXT DISCRETE, [Hair] TEXT DISCRETE, [Zip] LONG DISCRETE,
			[Age] DOUBLE CONTINUOUS, [Income] DOUBLE CONTINUOUS PREDICT, [Member] TEXT DISCRETE MODEL_EXISTENCE_ONLY,
			[Purchases] TABLE([Product] TEXT KEY)) USING [Decision_Trees] (MINIMUM_SUPPORT = 3, COMPLEXITY_PENALTY = 0)`,
		inserts: []string{
			`([ID], [Gender], [Hair], [Zip], [Age], [Income], [Member], [Purchases]([Product])) ` +
				strings.Replace(goldenShape, "FROM GCust", "FROM GCust WHERE ID <= 50", 1),
			`([ID], [Gender], [Hair], [Zip], [Age], [Income], [Member], [Purchases]([Product])) ` +
				strings.Replace(goldenShape, "FROM GCust", "FROM GCust WHERE ID > 50", 1)},
		predicts: []string{`t.ID, Predict([Income]), PredictStdev([Income]), PredictVariance([Income]), PredictSupport([Income]), PredictHistogram([Income])`}},
	{name: "G DT Basket", // nested TABLE target: one tree per item; GINI
		create: `([ID] LONG KEY, [Gender] TEXT DISCRETE, [Purchases] TABLE([Product] TEXT KEY, [Qty] DOUBLE CONTINUOUS) PREDICT)
			USING [Decision_Trees] (SCORE_METHOD = GINI, MINIMUM_SUPPORT = 2)`,
		inserts:  []string{`([ID], [Gender], [Purchases]([Product], [Qty])) ` + goldenShape},
		predicts: []string{`t.ID, Predict([Purchases]), Predict([Purchases], 2)`}},
	{name: "G NB Qualified", // PROBABILITY and SUPPORT qualifiers, top level and nested
		create: `([ID] LONG KEY, [W] DOUBLE SUPPORT OF [ID], [Gender] TEXT DISCRETE, [Zip] LONG DISCRETE,
			[Age] DOUBLE DISCRETIZED(EQUAL_RANGES, 4) PREDICT, [AgeProb] DOUBLE PROBABILITY OF [Age],
			[Purchases] TABLE([Product] TEXT KEY, [QProb] DOUBLE PROBABILITY OF [Product], [Qty] DOUBLE CONTINUOUS))
			USING [Naive_Bayes]`,
		inserts: []string{`([ID], [W], [Gender], [Zip], [Age], [AgeProb], [Purchases]([Product], [QProb], [Qty])) ` + goldenShape},
		predicts: []string{`t.ID, Predict([Age]), PredictProbability([Age]), PredictSupport([Age]), PredictHistogram([Age])`,
			`t.ID, PredictProbability([Age], '<= 32.25')`}},
	{name: "G NB Entropy", flat: true, // supervised discretization of an input, a discrete target
		create: `([ID] LONG KEY, [Gender] TEXT DISCRETE PREDICT, [Hair] TEXT DISCRETE NOT_NULL, [Age] DOUBLE DISCRETIZED(ENTROPY, 6),
			[Income] DOUBLE CONTINUOUS) USING [Naive_Bayes] (PSEUDOCOUNT = 0.5)`,
		inserts:  []string{`([ID], [Gender], [Hair], [Age], [Income]) SELECT ID, Gender, Hair, Age, Income FROM GCust`},
		predicts: []string{`t.ID, Predict([Gender]), PredictProbability([Gender]), PredictHistogram([Gender])`}},
	{name: "G NB Frac", approx: true, // weights in tenths: sums depend on the order they are added in
		create: `([ID] LONG KEY, [WFrac] DOUBLE SUPPORT OF [ID], [Gender] TEXT DISCRETE, [Age] DOUBLE DISCRETIZED PREDICT,
			[Purchases] TABLE([Product] TEXT KEY, [Qty] DOUBLE CONTINUOUS)) USING [Naive_Bayes]`,
		inserts:  []string{`([ID], [WFrac], [Gender], [Age], [Purchases]([Product], [Qty])) ` + goldenShape},
		predicts: []string{`t.ID, Predict([Age]), PredictProbability([Age]), PredictHistogram([Age])`}},
	// With weights in tenths two splits that tie exactly on paper are told
	// apart by rounding alone; the default MINIMUM_SUPPORT keeps this tree
	// away from the two- and three-case nodes where such ties live.
	{name: "G DT Frac", approx: true,
		create: `([ID] LONG KEY, [WFrac] DOUBLE SUPPORT OF [ID], [Gender] TEXT DISCRETE, [Income] DOUBLE CONTINUOUS,
			[Age] DOUBLE DISCRETIZED PREDICT, [Purchases] TABLE([Product] TEXT KEY, [Qty] DOUBLE CONTINUOUS))
			USING [Decision_Trees]`,
		inserts:  []string{`([ID], [WFrac], [Gender], [Income], [Age], [Purchases]([Product], [Qty])) ` + goldenShape},
		predicts: []string{`t.ID, Predict([Age]), PredictProbability([Age]), PredictHistogram([Age])`}},
	{name: "G Cluster",
		create: `([ID] LONG KEY, [Gender] TEXT DISCRETE, [Age] DOUBLE CONTINUOUS PREDICT, [Income] DOUBLE CONTINUOUS,
			[Purchases] TABLE([Product] TEXT KEY)) USING [Clustering] (CLUSTER_COUNT = 3)`,
		inserts:  []string{`([ID], [Gender], [Age], [Income], [Purchases]([Product])) ` + goldenShape},
		predicts: []string{`t.ID, Cluster(), ClusterProbability(), Predict([Age]), PredictHistogram([Age])`}},
	{name: "G Linreg",
		create: `([ID] LONG KEY, [Gender] TEXT DISCRETE, [Age] DOUBLE CONTINUOUS, [Income] DOUBLE CONTINUOUS PREDICT,
			[Purchases] TABLE([Product] TEXT KEY, [Qty] DOUBLE CONTINUOUS)) USING [Linear_Regression]`,
		inserts:  []string{`([ID], [Gender], [Age], [Income], [Purchases]([Product], [Qty])) ` + goldenShape},
		predicts: []string{`t.ID, Predict([Income]), PredictStdev([Income]), PredictSupport([Income])`}},
	{name: "G Assoc",
		create: `([ID] LONG KEY, [Purchases] TABLE([Product] TEXT KEY) PREDICT)
			USING [Association_Rules] (MINIMUM_SUPPORT = 0.05, MINIMUM_PROBABILITY = 0.3)`,
		inserts:  []string{`([ID], [Purchases]([Product])) ` + goldenShape},
		predicts: []string{`t.ID, Predict([Purchases]), PredictAssociation([Purchases], 3)`}},
	{name: "G Sequence",
		create: `([ID] LONG KEY, [Purchases] TABLE([Product] TEXT KEY, [Step] LONG SEQUENCE_TIME) PREDICT)
			USING [Sequence_Analysis]`,
		inserts:  []string{`([ID], [Purchases]([Product], [Step])) ` + goldenShape},
		predicts: []string{`t.ID, Predict([Purchases]), Predict([Purchases], 2)`}},
}

// TestGoldenModels trains the corpus on one worker and on four. Both runs must
// reproduce the golden files, and each other exactly: a retrain is
// deterministic, whatever ran the source query.
func TestGoldenModels(t *testing.T) {
	first := make(map[string]string)
	for _, workers := range []int{1, 4} {
		p := MustNew(WithParallelism(workers))
		goldenData(t, p)
		for _, gm := range goldenModels {
			gm := gm
			t.Run(fmt.Sprintf("%s/workers=%d", strings.ReplaceAll(gm.name, " ", "_"), workers), func(t *testing.T) {
				got := goldenTrain(p, gm) + goldenAsk(p, gm)
				checkGolden(t, gm, got)
				if prev, ok := first[gm.name]; ok && prev != got {
					t.Errorf("%s: training on %d workers differs from training on 1", gm.name, workers)
				}
				first[gm.name] = got
			})
		}
	}
}

// goldenRun executes one statement and records its result — or error text.
func goldenRun(b *strings.Builder, p *Provider, title, stmt string) {
	fmt.Fprintf(b, "== %s\n", title)
	rs, err := p.Execute(stmt)
	if err != nil {
		fmt.Fprintf(b, "ERROR %v\n", err)
		return
	}
	dumpRowset(b, rs, "")
}

// goldenTrain creates and trains one model.
func goldenTrain(p *Provider, gm goldenModel) string {
	var b strings.Builder
	goldenRun(&b, p, "create", fmt.Sprintf("CREATE MINING MODEL [%s] %s", gm.name, gm.create))
	for i, ins := range gm.inserts {
		goldenRun(&b, p, fmt.Sprintf("insert %d", i+1), fmt.Sprintf("INSERT INTO [%s] %s", gm.name, ins))
	}
	return b.String()
}

// goldenAsk records everything a trained model can be asked: its content, its
// PMML, its cases and its predictions over the probe tables.
func goldenAsk(p *Provider, gm goldenModel) string {
	var b strings.Builder
	goldenRun(&b, p, "content", fmt.Sprintf("SELECT * FROM [%s].CONTENT", gm.name))
	goldenRun(&b, p, "pmml", fmt.Sprintf("SELECT * FROM [%s].PMML", gm.name))
	goldenRun(&b, p, "cases", fmt.Sprintf("SELECT * FROM [%s].CASES", gm.name))
	probe := goldenProbeShape
	if gm.flat {
		probe = goldenFlatProbe
	}
	for i, items := range gm.predicts {
		goldenRun(&b, p, fmt.Sprintf("predict %d", i+1),
			fmt.Sprintf("SELECT %s FROM [%s] NATURAL PREDICTION JOIN (%s) AS t", items, gm.name, probe))
	}
	if gm.on != "" {
		goldenRun(&b, p, "predict on", gm.on)
	}
	return b.String()
}

// TestGoldenNotNullViolation pins the error a NOT_NULL column reports for a
// NULL in the training input, and that the failed INSERT leaves the model empty.
func TestGoldenNotNullViolation(t *testing.T) {
	p := MustNew()
	goldenData(t, p)
	gm := goldenModel{name: "G NotNull", flat: true,
		create:   `([ID] LONG KEY, [Gender] TEXT DISCRETE NOT_NULL, [Age] DOUBLE DISCRETIZED PREDICT) USING [Naive_Bayes]`,
		inserts:  []string{`([ID], [Gender], [Age]) SELECT ID, Gender, Age FROM GCust`},
		predicts: []string{`t.ID, Predict([Age])`}}
	checkGolden(t, gm, goldenTrain(p, gm)+goldenAsk(p, gm))
}

func goldenPath(gm goldenModel) string {
	return filepath.Join("testdata", "golden", strings.ReplaceAll(gm.name, " ", "_")+".txt")
}

func checkGolden(t *testing.T, gm goldenModel, got string) {
	t.Helper()
	path := goldenPath(gm)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	if gm.approx {
		if line := firstNumericDiff(string(want), got, 1e-9); line == "" {
			return
		} else {
			t.Fatalf("%s differs from %s beyond 1e-9 relative:\n%s", gm.name, path, line)
		}
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			t.Fatalf("%s differs from %s at line %d:\nwant %s\ngot  %s", gm.name, path, i+1, wl[i], gl[i])
		}
	}
	t.Fatalf("%s: %d lines, golden %s has %d", gm.name, len(gl), path, len(wl))
}

// firstNumericDiff compares two transcripts field by field; fields that both
// parse as numbers may differ by tol relative. It returns a description of the
// first real difference, or "".
func firstNumericDiff(want, got string, tol float64) string {
	split := func(s string) []string {
		return strings.FieldsFunc(s, func(r rune) bool { return strings.ContainsRune(" \t\n|,;()[]<>=\"':", r) })
	}
	wf, gf := split(want), split(got)
	if len(wf) != len(gf) {
		return fmt.Sprintf("%d fields, want %d", len(gf), len(wf))
	}
	for i := range wf {
		if wf[i] == gf[i] {
			continue
		}
		a, errA := strconv.ParseFloat(wf[i], 64)
		b, errB := strconv.ParseFloat(gf[i], 64)
		diff, scale := a-b, a
		if diff < 0 {
			diff = -diff
		}
		if scale < 0 {
			scale = -scale
		}
		if errA != nil || errB != nil || diff > tol*scale+1e-12 {
			return fmt.Sprintf("field %d: want %q got %q", i, wf[i], gf[i])
		}
	}
	return ""
}

// dumpRowset renders a rowset, nested tables expanded, one row per line.
func dumpRowset(b *strings.Builder, rs *rowset.Rowset, indent string) {
	fmt.Fprintf(b, "%s# %s\n", indent, strings.Join(rs.Schema().Names(), " | "))
	for _, r := range rs.Rows() {
		b.WriteString(indent)
		var nested []*rowset.Rowset
		for i, v := range r {
			if i > 0 {
				b.WriteString(" | ")
			}
			switch x := v.(type) {
			case *rowset.Rowset:
				fmt.Fprintf(b, "#table%d", len(nested))
				nested = append(nested, x)
			case float64:
				b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
			default:
				b.WriteString(rowset.FormatValue(v))
			}
		}
		b.WriteByte('\n')
		for _, n := range nested {
			dumpRowset(b, n, indent+"    ")
		}
	}
}
