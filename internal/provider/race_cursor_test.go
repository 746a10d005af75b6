package provider

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/rowset"
)

// TestConcurrentCursorsUnderParallelPredict drives every streaming surface at
// once against one provider: parallel PREDICTION JOIN scans (whose workers
// share the materialized source and auto-declare the key-column index),
// indexed point-lookup SELECTs (scan cursors + index pushdown probes), and
// SHAPE statements whose RELATE fast path auto-creates and reads the Sales
// index. Run under -race it proves the cursor pipeline, the shared table
// snapshots, concurrent CreateIndex calls and key index builds are race-clean; the byte
// comparison against a pre-computed baseline proves no interleaving perturbs
// any result.
func TestConcurrentCursorsUnderParallelPredict(t *testing.T) {
	p := MustNew(WithParallelism(4))
	setupCustomerData(t, p, 60)
	mustExec(t, p, createAgeModel)
	mustExec(t, p, insertAgeModel)

	queries := []string{
		`SELECT t.[Customer ID], Predict([Age]) FROM [Age Prediction]
			NATURAL PREDICTION JOIN (SELECT * FROM Customers) AS t`,
		`SELECT TOP 9 t.[Customer ID], Predict([Age]) FROM [Age Prediction]
			NATURAL PREDICTION JOIN (SELECT [Customer ID], Gender FROM Customers) AS t
			ORDER BY Predict([Age]) DESC`,
		"SELECT Age FROM Customers WHERE [Customer ID] = 7",
		"SELECT [Product Name], Quantity FROM Sales WHERE CustID = 9 ORDER BY [Product Name]",
		"SELECT Gender, COUNT(*) FROM Customers GROUP BY Gender ORDER BY Gender",
		`SHAPE {SELECT [Customer ID], Gender, Age FROM Customers ORDER BY [Customer ID]}
			APPEND ({SELECT CustID, [Product Name] FROM Sales ORDER BY CustID}
			RELATE [Customer ID] TO [CustID]) AS [Product Purchases]`,
	}

	// Baselines first, single-threaded. The predict statement has already
	// auto-indexed the Customers key and the SHAPE statement the Sales relate
	// column, so the concurrent phase exercises index reads as well as the
	// idempotent re-create path.
	baseline := make([][]byte, len(queries))
	for i, q := range queries {
		var buf bytes.Buffer
		if err := mustExec(t, p, q).Encode(&buf); err != nil {
			t.Fatal(err)
		}
		baseline[i] = buf.Bytes()
	}

	const goroutines = 8
	const iters = 10
	var wg sync.WaitGroup
	errc := make(chan error, goroutines*len(queries))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				qi := (g + i) % len(queries)
				rs, err := p.Execute(queries[qi])
				if err != nil {
					errc <- fmt.Errorf("%.60q: %w", queries[qi], err)
					return
				}
				var buf bytes.Buffer
				if err := rs.Encode(&buf); err != nil {
					errc <- err
					return
				}
				if !bytes.Equal(buf.Bytes(), baseline[qi]) {
					errc <- fmt.Errorf("%.60q: concurrent result differs from baseline (%d rows)",
						queries[qi], rs.Len())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestPredictionJoinAutoIndexesKey pins the auto-index behaviour: a
// prediction join whose source is a bare single-table SELECT declares an
// index on the table column bound to the model's KEY column, and only on that
// column. Its source is a full scan, so it builds no key index; the first
// point lookup does.
func TestPredictionJoinAutoIndexesKey(t *testing.T) {
	p := MustNew()
	setupCustomerData(t, p, 20)
	mustExec(t, p, createAgeModel)
	mustExec(t, p, insertAgeModel)

	tbl, err := p.DB.Table("Customers")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.HasIndex("Customer ID") {
		t.Fatal("key index exists before any prediction join")
	}
	mustExec(t, p, `SELECT t.[Customer ID], Predict([Age]) FROM [Age Prediction]
		NATURAL PREDICTION JOIN (SELECT [Customer ID], Gender FROM Customers) AS t`)
	if !tbl.HasIndex("Customer ID") {
		t.Error("prediction join did not auto-create the key-column index")
	}
	if tbl.HasIndex("Gender") || tbl.HasIndex("Age") {
		t.Error("prediction join indexed a non-key column")
	}
	cached := func() (n int) {
		for ord, c := range tbl.Schema().Columns {
			if tbl.CachedKeyIndex(ord, rowset.KeyKindOf(c.Type, c.Type)) != nil {
				n++
			}
		}
		return n
	}
	if n := cached(); n != 0 {
		t.Errorf("prediction join over a bare scan left %d key indexes cached, want none", n)
	}
	// The indexed table must answer a pushed-down point lookup identically.
	rs := mustExec(t, p, "SELECT Gender FROM Customers WHERE [Customer ID] = 3")
	if rs.Len() != 1 {
		t.Errorf("indexed point lookup returned %d rows, want 1", rs.Len())
	}
	if n := cached(); n != 1 {
		t.Errorf("after the point lookup %d key indexes are cached, want the key column's", n)
	}
}

// TestPredictionJoinOverViewIndexesNothing: a source naming a view reads the
// view, so the table the view shadows gets no index declared.
func TestPredictionJoinOverViewIndexesNothing(t *testing.T) {
	p := MustNew()
	setupCustomerData(t, p, 20)
	mustExec(t, p, createAgeModel)
	mustExec(t, p, insertAgeModel)
	mustExec(t, p, "CREATE VIEW Shadow AS SELECT [Customer ID], Gender FROM Customers")
	mustExec(t, p, "CREATE TABLE Shadow ([Customer ID] LONG, Gender TEXT)")
	mustExec(t, p, `SELECT t.[Customer ID], Predict([Age]) FROM [Age Prediction]
		NATURAL PREDICTION JOIN (SELECT [Customer ID], Gender FROM Shadow) AS t`)
	tbl, err := p.DB.Table("Shadow")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.HasIndex("Customer ID") {
		t.Error("prediction join over a view declared an index on the table it shadows")
	}
}
