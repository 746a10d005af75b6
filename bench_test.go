// Package repro_test holds the benchmark harness: one BenchmarkE<n>_* per
// experiment in DESIGN.md's index, wrapping the same code paths as
// cmd/dmbench, plus micro-benchmarks for the hot provider paths. Run with
//
//	go test -bench=. -benchmem
package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"testing"

	"repro/internal/algo/discretize"
	"repro/internal/algo/dtree"
	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/dmclient"
	"repro/internal/dmserver"
	"repro/internal/dmx"
	"repro/internal/experiments"
	"repro/internal/provider"
	"repro/internal/provider/providertest"
	"repro/internal/rowset"
	"repro/internal/shape"
	"repro/internal/workload"
)

const benchScale = 1000

// benchWarehouse builds a provider over the synthetic warehouse once per
// benchmark.
func benchWarehouse(b *testing.B, n int) *provider.Provider {
	b.Helper()
	p := providertest.MustNew()
	if _, err := workload.Populate(p.DB, workload.Config{Customers: n, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	return p
}

func mustExecB(b *testing.B, p *provider.Provider, cmd string) *rowset.Rowset {
	b.Helper()
	s := p.NewSession()
	defer s.Close() //nolint:errcheck // Close never fails
	rs, err := s.Execute(context.Background(), cmd)
	if err != nil {
		b.Fatalf("Execute(%.60q): %v", cmd, err)
	}
	return rs
}

const benchCreateAge = `CREATE MINING MODEL [Bench Age] (
	[Customer ID] LONG KEY, [Gender] TEXT DISCRETE,
	[Age] DOUBLE DISCRETIZED PREDICT,
	[Product Purchases] TABLE([Product Name] TEXT KEY)
) USING [Decision_Trees]`

const benchInsertAge = `INSERT INTO [Bench Age] ([Customer ID], [Gender], [Age], [Product Purchases]([Product Name]))
SHAPE {SELECT [Customer ID], Gender, Age FROM Customers ORDER BY [Customer ID]}
APPEND ({SELECT CustID, [Product Name] FROM Sales ORDER BY CustID}
	RELATE [Customer ID] TO [CustID]) AS [Product Purchases]`

// trainedAgeModel returns a provider with [Bench Age] populated.
func trainedAgeModel(b *testing.B, n int) *provider.Provider {
	b.Helper()
	p := benchWarehouse(b, n)
	mustExecB(b, p, benchCreateAge)
	mustExecB(b, p, benchInsertAge)
	return p
}

// ---------- E1: Table 1 — caseset vs flattened join ----------

func BenchmarkE1_CasesetVsJoin(b *testing.B) {
	p := benchWarehouse(b, benchScale)
	b.Run("FlattenedJoin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustExecB(b, p, `SELECT c.[Customer ID], s.[Product Name], k.Car
				FROM Customers c
				JOIN Sales s ON c.[Customer ID] = s.CustID
				LEFT JOIN Cars k ON k.CustID = c.[Customer ID]`)
		}
	})
	b.Run("ShapedCaseset", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := shape.ExecuteStringContext(context.Background(), p.Engine, workload.PaperShape); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------- E2: in-provider vs export pipeline ----------

func BenchmarkE2_InDBvsExport(b *testing.B) {
	b.Run("InProvider", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := benchWarehouse(b, benchScale)
			mustExecB(b, p, benchCreateAge)
			b.StartTimer()
			mustExecB(b, p, benchInsertAge)
		}
	})
	b.Run("ExportCSV", func(b *testing.B) {
		p := benchWarehouse(b, benchScale)
		dir := b.TempDir()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n, err := workload.ExportCSV(p.DB, dir, "Customers", "Sales")
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(n)
		}
	})
}

// ---------- E3: training throughput per service ----------

func benchTrain(b *testing.B, create, insert string) {
	p := benchWarehouse(b, benchScale)
	mustExecB(b, p, create)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		mustExecB(b, p, "DELETE FROM "+modelNameOf(create))
		b.StartTimer()
		mustExecB(b, p, insert)
	}
}

func modelNameOf(create string) string {
	// create statements here always read "CREATE MINING MODEL [name] (".
	start := bytes.IndexByte([]byte(create), '[')
	end := bytes.IndexByte([]byte(create), ']')
	return create[start : end+1]
}

func BenchmarkE3_TrainDecisionTrees(b *testing.B) {
	benchTrain(b, benchCreateAge, benchInsertAge)
}

func BenchmarkE3_TrainNaiveBayes(b *testing.B) {
	benchTrain(b, `CREATE MINING MODEL [Bench NB] (
		[Customer ID] LONG KEY, [Age] DOUBLE CONTINUOUS, [Gender] TEXT DISCRETE PREDICT
	) USING [Naive_Bayes]`,
		`INSERT INTO [Bench NB] ([Customer ID], [Age], [Gender])
		SELECT [Customer ID], Age, Gender FROM Customers`)
}

func BenchmarkE3_TrainClustering(b *testing.B) {
	benchTrain(b, `CREATE MINING MODEL [Bench KM] (
		[Customer ID] LONG KEY, [Gender] TEXT DISCRETE, [Age] DOUBLE CONTINUOUS
	) USING [Clustering] (CLUSTER_COUNT = 3)`,
		`INSERT INTO [Bench KM] ([Customer ID], [Gender], [Age])
		SELECT [Customer ID], Gender, Age FROM Customers`)
}

func BenchmarkE3_TrainAssociationRules(b *testing.B) {
	benchTrain(b, `CREATE MINING MODEL [Bench AR] (
		[Customer ID] LONG KEY,
		[Product Purchases] TABLE([Product Name] TEXT KEY) PREDICT
	) USING [Association_Rules] (MINIMUM_SUPPORT = 0.02)`,
		`INSERT INTO [Bench AR] ([Customer ID], [Product Purchases]([Product Name]))
		SHAPE {SELECT [Customer ID] FROM Customers ORDER BY [Customer ID]}
		APPEND ({SELECT CustID, [Product Name] FROM Sales ORDER BY CustID}
			RELATE [Customer ID] TO [CustID]) AS [Product Purchases]`)
}

// ---------- E4: prediction join ----------

func BenchmarkE4_PredictionJoinOn(b *testing.B) {
	p := trainedAgeModel(b, benchScale)
	q := `SELECT t.[Customer ID], Predict([Age]) FROM [Bench Age]
		PREDICTION JOIN (SELECT [Customer ID], Gender FROM Customers) AS t
		ON [Bench Age].Gender = t.Gender`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustExecB(b, p, q)
	}
}

func BenchmarkE4_PredictionJoinNatural(b *testing.B) {
	p := trainedAgeModel(b, benchScale)
	q := `SELECT t.[Customer ID], Predict([Age]) FROM [Bench Age]
		NATURAL PREDICTION JOIN (SELECT [Customer ID], Gender FROM Customers) AS t`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustExecB(b, p, q)
	}
}

func BenchmarkE4_PredictionSingleCase(b *testing.B) {
	p := trainedAgeModel(b, benchScale)
	q := `SELECT Predict([Age]) FROM [Bench Age]
		NATURAL PREDICTION JOIN (SELECT 'Male' AS Gender) AS t`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustExecB(b, p, q)
	}
}

// ---------- E5: content and PMML ----------

func BenchmarkE5_ContentRowset(b *testing.B) {
	p := trainedAgeModel(b, benchScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustExecB(b, p, "SELECT * FROM [Bench Age].CONTENT")
	}
}

func BenchmarkE5_PMMLEncode(b *testing.B) {
	p := trainedAgeModel(b, benchScale)
	m, err := p.Model("Bench Age")
	if err != nil {
		b.Fatal(err)
	}
	root := m.Trained.Content()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := content.WriteXML(&buf, "Bench Age", "Decision_Trees", m.CaseCount, root); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

// ---------- E6: discretization ----------

func BenchmarkE6_Discretize(b *testing.B) {
	for _, method := range []string{"EQUAL_RANGES", "EQUAL_AREAS", "ENTROPY"} {
		b.Run(method, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := benchWarehouse(b, benchScale)
				create := fmt.Sprintf(`CREATE MINING MODEL [Bench D] (
					[Customer ID] LONG KEY, [Gender] TEXT DISCRETE PREDICT,
					[Age] DOUBLE DISCRETIZED(%s, 4) PREDICT
				) USING [Decision_Trees]`, method)
				mustExecB(b, p, create)
				b.StartTimer()
				mustExecB(b, p, `INSERT INTO [Bench D] ([Customer ID], [Gender], [Age])
					SELECT [Customer ID], Gender, Age FROM Customers`)
			}
		})
	}
}

// ---------- E7: case assembly ----------

func BenchmarkE7_CaseAssembly(b *testing.B) {
	p := benchWarehouse(b, benchScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := shape.ExecuteStringContext(context.Background(), p.Engine, workload.PaperShape)
		if err != nil {
			b.Fatal(err)
		}
		if rs.Len() != benchScale {
			b.Fatalf("cases = %d", rs.Len())
		}
	}
}

// nestedCaseset is the paper's nested caseset at 5,000 customers — what the
// dt_nested_tenth statement of `go run ./bench -workload train_nested` trains
// on — as the source rowset an INSERT INTO hands the tokenizer, and the model
// definition it tokenizes for.
func nestedCaseset(b *testing.B) (*core.ModelDef, *rowset.Rowset) {
	b.Helper()
	p := benchWarehouse(b, 5000)
	mustExecB(b, p, `CREATE MINING MODEL [Bench Nested] ([Customer ID] LONG KEY, [Gender] TEXT DISCRETE,
		[Age] DOUBLE DISCRETIZED PREDICT,
		[Product Purchases] TABLE([Product Name] TEXT KEY, [Quantity] DOUBLE CONTINUOUS)) USING [Decision_Trees]`)
	def, err := p.ModelDef("Bench Nested")
	if err != nil {
		b.Fatal(err)
	}
	rs, err := shape.ExecuteStringContext(context.Background(), p.Engine, `SHAPE {SELECT [Customer ID], Gender, Age FROM Customers ORDER BY [Customer ID]}
		APPEND ({SELECT CustID, [Product Name], Quantity FROM Sales ORDER BY CustID}
			RELATE [Customer ID] TO [CustID]) AS [Product Purchases]`)
	if err != nil {
		b.Fatal(err)
	}
	return def, rs
}

// BenchmarkInsertNested is the training path whole and in-process: INSERT
// INTO … SHAPE of the paper's nested caseset at 5,000 customers — source
// queries, case assembly, tokenize, discretize, Decision_Trees. Run with
// -benchmem; allocs/case (the statement's allocations over the cases it
// consumed) is the number to watch.
func BenchmarkInsertNested(b *testing.B) {
	const customers = 5000
	p := benchWarehouse(b, customers)
	mustExecB(b, p, `CREATE MINING MODEL [Bench Nested] ([Customer ID] LONG KEY, [Gender] TEXT DISCRETE,
		[Age] DOUBLE DISCRETIZED PREDICT,
		[Product Purchases] TABLE([Product Name] TEXT KEY, [Quantity] DOUBLE CONTINUOUS)) USING [Decision_Trees]`)
	insert := `INSERT INTO [Bench Nested] ([Customer ID], [Gender], [Age], [Product Purchases]([Product Name], [Quantity]))
		SHAPE {SELECT [Customer ID], Gender, Age FROM Customers ORDER BY [Customer ID]}
		APPEND ({SELECT CustID, [Product Name], Quantity FROM Sales ORDER BY CustID}
			RELATE [Customer ID] TO [CustID]) AS [Product Purchases]`
	var ms runtime.MemStats
	var mallocs uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		mustExecB(b, p, "DELETE FROM [Bench Nested]")
		runtime.ReadMemStats(&ms)
		mallocs -= ms.Mallocs
		b.StartTimer()
		if rs := mustExecB(b, p, insert); rs.Row(0)[0] != int64(customers) {
			b.Fatalf("cases consumed = %v", rs.Row(0))
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs
		b.StartTimer()
	}
	b.ReportMetric(float64(mallocs)/float64(b.N*customers), "allocs/case")
}

// BenchmarkTokenizeNested is the case path alone: source rows to coded cases,
// attribute space growing as it goes. Run with -benchmem: allocations per op
// are the number to watch.
func BenchmarkTokenizeNested(b *testing.B) {
	def, rs := nestedCaseset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs, err := core.NewTokenizer(def).Tokenize(rs)
		if err != nil || cs.Len() != rs.Len() {
			b.Fatalf("cases = %d, err = %v", cs.Len(), err)
		}
	}
}

// BenchmarkTrainDecisionTreesNested is the trainer alone, over cases tokenized
// and discretized once.
func BenchmarkTrainDecisionTreesNested(b *testing.B) {
	def, rs := nestedCaseset(b)
	cs, err := core.NewTokenizer(def).Tokenize(rs)
	if err != nil {
		b.Fatal(err)
	}
	age, _ := cs.Space.Lookup("Age")
	err = cs.Discretize(context.Background(), nil, age, func(ages []float64) ([]float64, error) {
		return discretize.EqualAreas(ages, discretize.DefaultBuckets), nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dtree.New().Train(context.Background(), cs, cs.Space.Targets(), nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------- E8: cross-algorithm accuracy (fixed-work measurement) ----------

func BenchmarkE8_Accuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(context.Background(), "E8", experiments.Config{Scale: 600, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------- E9: transport overhead ----------

func BenchmarkE9_Server(b *testing.B) {
	p := trainedAgeModel(b, benchScale)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := dmserver.New(p)
	srv.Logf = func(string, ...any) {}
	go srv.Serve(l) //nolint:errcheck
	defer srv.Close()
	c, err := dmclient.New(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	q := `SELECT Predict([Age]) FROM [Bench Age]
		NATURAL PREDICTION JOIN (SELECT 'Male' AS Gender) AS t`
	b.Run("InProcess", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustExecB(b, p, q)
		}
	})
	b.Run("TCP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.Execute(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------- E10: the paper's running example ----------

func BenchmarkE10_PaperLifecycle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(context.Background(), "E10", experiments.Config{Scale: 300, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------- micro-benchmarks for hot paths ----------

func BenchmarkMicroSQLSelectWhere(b *testing.B) {
	p := benchWarehouse(b, benchScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustExecB(b, p, "SELECT [Customer ID], Age FROM Customers WHERE Age > 30")
	}
}

func BenchmarkMicroSQLGroupBy(b *testing.B) {
	p := benchWarehouse(b, benchScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustExecB(b, p, "SELECT Gender, COUNT(*), AVG(Age) FROM Customers GROUP BY Gender")
	}
}

func BenchmarkMicroHashJoin(b *testing.B) {
	p := benchWarehouse(b, benchScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustExecB(b, p, `SELECT c.[Customer ID], s.[Product Name]
			FROM Customers c JOIN Sales s ON c.[Customer ID] = s.CustID`)
	}
}

func BenchmarkMicroRowsetCodec(b *testing.B) {
	p := benchWarehouse(b, benchScale)
	tbl, err := p.DB.Table("Sales")
	if err != nil {
		b.Fatal(err)
	}
	rs := tbl.Scan()
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := rs.Encode(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := rowset.Decode(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

func BenchmarkMicroDMXParse(b *testing.B) {
	isModel := func(string) bool { return true }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dmx.Parse(benchCreateAge, isModel); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroShapeParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := shape.ParseString(workload.PaperShape); err != nil {
			b.Fatal(err)
		}
	}
}
