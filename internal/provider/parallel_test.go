package provider

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/rowset"
	"repro/internal/storage"
)

// predictionQueries covers the prediction-join surface every worker count must
// keep byte-identical: natural and ON joins, nested-table inputs, prediction
// functions, WHERE filters, ORDER BY (by expression and by select-item alias),
// and TOP (with and without ORDER BY, and TOP 0).
var predictionQueries = []string{
	`SELECT t.[Customer ID], Predict([Age]) FROM [Age Prediction]
		NATURAL PREDICTION JOIN (SELECT * FROM Customers) AS t`,
	`SELECT t.[Customer ID], Predict([Age]), PredictProbability([Age]) FROM [Age Prediction]
		PREDICTION JOIN (SELECT [Customer ID], Gender FROM Customers) AS t
		ON [Age Prediction].Gender = t.Gender`,
	`SELECT t.[Customer ID], Predict([Age]) FROM [Age Prediction]
		NATURAL PREDICTION JOIN (SELECT * FROM Customers) AS t
		WHERE t.Gender = 'Male'`,
	`SELECT TOP 7 t.[Customer ID], Predict([Age]) FROM [Age Prediction]
		NATURAL PREDICTION JOIN (SELECT * FROM Customers) AS t
		ORDER BY Predict([Age]) DESC`,
	`SELECT TOP 5 t.[Customer ID] FROM [Age Prediction]
		NATURAL PREDICTION JOIN (SELECT * FROM Customers) AS t`,
	`SELECT t.[Customer ID], PredictHistogram([Age]) FROM [Age Prediction]
		NATURAL PREDICTION JOIN (SELECT * FROM Customers) AS t`,
	`SELECT t.[Customer ID], PredictProbability([Age]) AS pr FROM [Age Prediction]
		NATURAL PREDICTION JOIN (SELECT * FROM Customers) AS t
		ORDER BY pr DESC, t.[Customer ID]`,
	`SELECT TOP 0 t.[Customer ID], Predict([Age]) FROM [Age Prediction]
		NATURAL PREDICTION JOIN (SELECT * FROM Customers) AS t`,
}

// manyCustomers is a source large enough to run as three partitions
// (storage.DefaultMorselSize rows each), so the tests below exercise the
// partitioned path and its merge, not one inline partition.
const manyCustomers = 2*storage.DefaultMorselSize + 500

// trainedProvider builds a provider at the given parallelism with identical
// data and a populated [Age Prediction] model.
func trainedProviderWorkers(t *testing.T, workers, n int) *Provider {
	t.Helper()
	p := MustNew(WithParallelism(workers))
	setupCustomerData(t, p, n)
	mustExec(t, p, createAgeModel)
	mustExec(t, p, insertAgeModel)
	return p
}

func encoded(t *testing.T, rs *rowset.Rowset) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := rs.Encode(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestParallelPredictionMatchesSequential asserts a multi-partition prediction
// join returns byte-identical rowsets on one, two and eight workers.
func TestParallelPredictionMatchesSequential(t *testing.T) {
	seq := trainedProviderWorkers(t, 1, manyCustomers)
	for _, workers := range []int{2, 8} {
		parl := trainedProviderWorkers(t, workers, manyCustomers)
		for _, q := range predictionQueries {
			want, got := mustExec(t, seq, q), mustExec(t, parl, q)
			if !bytes.Equal(encoded(t, want), encoded(t, got)) {
				t.Errorf("query %.60q...: rowset on %d workers differs from one worker's (%d vs %d rows)",
					q, workers, got.Len(), want.Len())
			}
		}
	}
}

// TestParallelInsertMatchesSequential asserts that training through the
// parallel row-reshaping path yields the same model content as sequential.
func TestParallelInsertMatchesSequential(t *testing.T) {
	seq := trainedProviderWorkers(t, 1, 60)
	parl := trainedProviderWorkers(t, 8, 60)
	q := "SELECT * FROM [Age Prediction].CONTENT"
	if !bytes.Equal(encoded(t, mustExec(t, seq, q)), encoded(t, mustExec(t, parl, q))) {
		t.Errorf("model content differs between sequential and parallel training scans")
	}
}

// TestParallelErrorIsDeterministic plants a failure in the WHERE clause that
// only some rows trigger and checks both paths report the same (first) error.
func TestParallelErrorIsDeterministic(t *testing.T) {
	q := `SELECT t.[Customer ID] FROM [Age Prediction]
		NATURAL PREDICTION JOIN (SELECT * FROM Customers) AS t
		WHERE PredictProbability([Nope]) > 0`
	seq := trainedProviderWorkers(t, 1, manyCustomers)
	parl := trainedProviderWorkers(t, 8, manyCustomers)
	_, errSeq := seq.Execute(q)
	_, errPar := parl.Execute(q)
	if errSeq == nil || errPar == nil {
		t.Fatalf("expected errors, got seq=%v par=%v", errSeq, errPar)
	}
	if errSeq.Error() != errPar.Error() {
		t.Errorf("error mismatch:\n  sequential: %v\n  parallel:   %v", errSeq, errPar)
	}
}

// TestPredictionNestedColumnTypeError covers the former silent-empty bug: a
// source cell bound to a nested TABLE column whose value is not a rowset must
// surface a typed error naming the column (from the case binder, which the
// prediction join and INSERT INTO share), not predict from an empty basket.
func TestPredictionNestedColumnTypeError(t *testing.T) {
	p := trainedProviderWorkers(t, 1, 30)
	e, err := p.entry("Age Prediction")
	if err != nil {
		t.Fatal(err)
	}
	nestedSrc := rowset.MustSchema(rowset.Column{Name: "Product Name", Type: rowset.TypeText})
	srcSchema := rowset.MustSchema(
		rowset.Column{Name: "Gender", Type: rowset.TypeText},
		rowset.Column{Name: "Product Purchases", Type: rowset.TypeTable, Nested: nestedSrc},
	)
	cols := core.BindByName(e.model.Def.Columns, srcSchema)
	frozen := *e.tokenizer
	frozen.Freeze()
	binder, err := frozen.NewCaseBinder(cols)
	if err != nil {
		t.Fatal(err)
	}
	// The schema claims a nested table but the cell carries a string.
	var c core.Case
	err = binder.TokenizeRow(rowset.Row{"Male", "not-a-rowset"}, &c)
	var nte *core.NestedColumnTypeError
	if !errors.As(err, &nte) {
		t.Fatalf("err = %v, want *NestedColumnTypeError", err)
	}
	if nte.Column != "Product Purchases" {
		t.Errorf("error names column %q, want Product Purchases", nte.Column)
	}
	// A nil cell still means an empty basket, not an error.
	if err := binder.TokenizeRow(rowset.Row{"Male", nil}, &c); err != nil {
		t.Errorf("nil nested cell: %v", err)
	}
}
