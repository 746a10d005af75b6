package provider

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rowset"
)

// materialized rewrites a source SELECT into one that returns the same rows
// in the same order but takes a TOP, so it runs to a rowset before the join.
func materialized(src string) string {
	return strings.Replace(src, "SELECT ", "SELECT TOP 1000000000 ", 1)
}

// TestStreamedSourceMatchesMaterialized: a PREDICTION JOIN whose SELECT
// source streams into it returns the bytes the same join over the source run
// to a rowset first returns — with a WHERE on the source (an index probe, a
// probe and a filter, a filter), an outer WHERE and ORDER BY, an outer TOP
// without ORDER BY, an outer t.*, PredictHistogram and PredictProbability of
// a value — at 1, 2 and 8 workers over a source of three partitions. A nested
// SHAPE source, and a source that sorts, keep their materialized path and
// their order.
func TestStreamedSourceMatchesMaterialized(t *testing.T) {
	const base = "SELECT [Customer ID], Gender, Age FROM Customers"
	sources := []string{
		base,
		base + " WHERE [Customer ID] = 77",
		base + " WHERE [Customer ID] = 77 AND Age > 0",
		base + " WHERE Age > 30 AND Gender = 'Male'",
		"SELECT Gender, Age, [Customer ID] FROM Customers", // projected into rows of its own
	}
	var want map[string][]byte
	for _, workers := range []int{1, 2, 8} {
		p := trainedProviderWorkers(t, workers, manyCustomers)
		mustExec(t, p, "SELECT t.Gender FROM [Age Prediction] NATURAL PREDICTION JOIN ("+base+") AS t") // indexes [Customer ID]
		label := mustExec(t, p, "SELECT TOP 1 Predict([Age]) FROM [Age Prediction] NATURAL PREDICTION JOIN ("+base+") AS t").Row(0)[0]
		outer := []string{
			`SELECT t.[Customer ID], Predict([Age]), PredictProbability([Age]) FROM [Age Prediction]
				NATURAL PREDICTION JOIN (%s) AS t WHERE t.Age > 30 ORDER BY Predict([Age]), t.[Customer ID]`,
			"SELECT TOP 10 t.[Customer ID], Predict([Age]) FROM [Age Prediction] NATURAL PREDICTION JOIN (%s) AS t",
			"SELECT t.* FROM [Age Prediction] NATURAL PREDICTION JOIN (%s) AS t",
			"SELECT t.*, PredictHistogram([Age]) FROM [Age Prediction] NATURAL PREDICTION JOIN (%s) AS t",
			`SELECT t.[Customer ID], PredictProbability([Age], '` + label.(string) + `') FROM [Age Prediction]
				NATURAL PREDICTION JOIN (%s) AS t`,
		}
		got := map[string][]byte{}
		for _, src := range sources {
			for _, o := range outer {
				q := fmt.Sprintf(o, src)
				streamed, whole := encoded(t, mustExec(t, p, q)), encoded(t, mustExec(t, p, fmt.Sprintf(o, materialized(src))))
				if !bytes.Equal(streamed, whole) {
					t.Errorf("workers=%d: %s: the streamed source differs from the materialized one", workers, q)
				}
				got[q] = streamed
			}
		}
		// A nested SHAPE source is unchanged: the caseset runs it.
		shape := `SELECT t.[Customer ID], Predict([Age]) FROM [Age Prediction] NATURAL PREDICTION JOIN (SHAPE
			{SELECT [Customer ID], Gender FROM Customers ORDER BY [Customer ID]}
			APPEND ({SELECT CustID, [Product Name], Quantity FROM Sales ORDER BY CustID}
				RELATE [Customer ID] TO CustID) AS [Product Purchases]) AS t`
		got[shape] = encoded(t, mustExec(t, p, shape))
		if ops := operators(decodeExplain(t, mustExec(t, p, "EXPLAIN ANALYZE "+shape))); !strings.HasPrefix(ops, "statement,caseset,shape") {
			t.Errorf("workers=%d: a SHAPE source runs in the caseset; spans %s", workers, ops)
		}
		// A sorted source is materialized, and its order is the result's.
		sorted := base + " ORDER BY Age DESC, [Customer ID]"
		ids := mustExec(t, p, "SELECT t.[Customer ID] FROM [Age Prediction] NATURAL PREDICTION JOIN ("+sorted+") AS t")
		if !bytes.Equal(encoded(t, ids), encoded(t, mustExec(t, p, "SELECT [Customer ID] FROM Customers ORDER BY Age DESC, [Customer ID]"))) {
			t.Errorf("workers=%d: the join lost its sorted source's order", workers)
		}
		if want == nil {
			want = got
		}
		for q, b := range got {
			if !bytes.Equal(b, want[q]) {
				t.Errorf("workers=%d: %s differs from workers=1", workers, q)
			}
		}
	}
}

// TestStreamedSourceCancelled: a whole-table PREDICTION JOIN cancelled before
// or while its source streams returns context.Canceled, and leaves no
// partition worker running.
func TestStreamedSourceCancelled(t *testing.T) {
	p := trainedProviderWorkers(t, 4, manyCustomers)
	s := p.NewSession()
	before := runtime.NumGoroutine()
	cancelled := 0
	for _, after := range []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		if after == 0 {
			cancel()
		} else {
			time.AfterFunc(after, cancel)
		}
		_, err := s.Execute(ctx, `SELECT t.[Customer ID], Predict([Age]) FROM [Age Prediction]
			NATURAL PREDICTION JOIN (SELECT [Customer ID], Gender, Age FROM Customers) AS t ORDER BY Predict([Age])`)
		switch {
		case errors.Is(err, context.Canceled):
			cancelled++
		case err != nil:
			t.Fatalf("cancelled after %v: %v", after, err)
		}
		cancel()
	}
	if cancelled == 0 {
		t.Error("no statement was cancelled")
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the statements, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPredictionJoinAllocs guards what a whole-table NATURAL PREDICTION JOIN
// allocates. Over three partitions (8 692 customers, 2 workers) it allocates
// at most 200 bytes per source row: measured at 130 (go1.24, linux/amd64),
// against 314 when the source ran to a rowset first and every batch made its
// own cases, frames and prediction columns. And a partition's binder, after
// its first batch, allocates nothing per batch: no second case arena, frames
// or prediction columns.
func TestPredictionJoinAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	const maxBytesPerRow = 200
	p := trainedProviderWorkers(t, 2, manyCustomers)
	const q = `SELECT t.[Customer ID], [Age Prediction].[Age], PredictProbability([Age]) FROM [Age Prediction]
		NATURAL PREDICTION JOIN (SELECT [Customer ID], Gender, Age FROM Customers) AS t`
	mustExec(t, p, q)
	var before, after runtime.MemStats
	const runs = 5
	runtime.ReadMemStats(&before)
	for range runs {
		mustExec(t, p, q)
	}
	runtime.ReadMemStats(&after)
	perRow := float64(after.TotalAlloc-before.TotalAlloc) / (runs * manyCustomers)
	t.Logf("%.0f bytes per source row", perRow)
	if perRow > maxBytesPerRow {
		t.Errorf("the join allocates %.0f bytes per source row, want at most %d", perRow, maxBytesPerRow)
	}

	e, err := p.entry("Age Prediction")
	if err != nil {
		t.Fatal(err)
	}
	src := mustExec(t, p, "SELECT [Customer ID], Gender, Age FROM Customers")
	frozen := *e.tokenizer
	frozen.Freeze()
	cb, err := frozen.NewCaseBinder(core.BindByName(e.model.Def.Columns, src.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	pp := &predictPlan{ctx: t.Context(), entry: e, binder: cb, schema: src.Schema(), targets: map[string]*predTarget{}}
	pp.target("Age").hist = true
	bind, ext, rows := pp.caseBinder(true), make([]any, rowset.DefaultBatchSize), src.Rows()
	batch := func(i int) []rowset.Row { return rows[i*rowset.DefaultBatchSize : (i+1)*rowset.DefaultBatchSize] }
	if _, err := bind(batch(0), ext); err != nil {
		t.Fatal(err)
	}
	next := 1
	if allocs := testing.AllocsPerRun(5, func() {
		if _, err := bind(batch(next), ext); err != nil {
			t.Fatal(err)
		}
		next++
	}); allocs != 0 {
		t.Errorf("a partition's binder allocates %.0f objects per batch after its first", allocs)
	}
}
