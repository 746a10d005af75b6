package provider

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/rowset"
	"repro/internal/sqlengine"
)

// predictionQueries covers the prediction-join surface the parallel scan must
// keep byte-identical: natural and ON joins, nested-table inputs, prediction
// functions, WHERE filters, ORDER BY, and TOP (with and without ORDER BY).
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
}

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

// TestParallelPredictionMatchesSequential asserts the parallel scan produces
// byte-identical rowsets to the sequential path (ISSUE acceptance criterion).
func TestParallelPredictionMatchesSequential(t *testing.T) {
	seq := trainedProviderWorkers(t, 1, 60)
	parl := trainedProviderWorkers(t, 8, 60)
	for _, q := range predictionQueries {
		want := mustExec(t, seq, q)
		got := mustExec(t, parl, q)
		var wb, gb bytes.Buffer
		if err := want.Encode(&wb); err != nil {
			t.Fatal(err)
		}
		if err := got.Encode(&gb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
			t.Errorf("query %.60q...: parallel rowset differs from sequential (%d vs %d rows)",
				q, got.Len(), want.Len())
		}
	}
}

// TestParallelInsertMatchesSequential asserts that training through the
// parallel row-reshaping path yields the same model content as sequential.
func TestParallelInsertMatchesSequential(t *testing.T) {
	seq := trainedProviderWorkers(t, 1, 60)
	parl := trainedProviderWorkers(t, 8, 60)
	q := "SELECT * FROM [Age Prediction].CONTENT"
	want, got := mustExec(t, seq, q), mustExec(t, parl, q)
	var wb, gb bytes.Buffer
	if err := want.Encode(&wb); err != nil {
		t.Fatal(err)
	}
	if err := got.Encode(&gb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
		t.Errorf("model content differs between sequential and parallel training scans")
	}
}

// TestParallelErrorIsDeterministic plants a failure in the WHERE clause that
// only some rows trigger and checks both paths report the same (first) error.
func TestParallelErrorIsDeterministic(t *testing.T) {
	q := `SELECT t.[Customer ID] FROM [Age Prediction]
		NATURAL PREDICTION JOIN (SELECT * FROM Customers) AS t
		WHERE PredictProbability([Nope]) > 0`
	seq := trainedProviderWorkers(t, 1, 40)
	parl := trainedProviderWorkers(t, 8, 40)
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
// surface a typed error naming the column, not predict from an empty basket.
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
	bindings := naturalBindings(e.model.Def, srcSchema)
	plan, outCols, err := bindColumns(e.model.Def.Name, e.model.Def.Columns, bindings, srcSchema, true)
	if err != nil {
		t.Fatal(err)
	}
	modelSchema, err := rowset.NewSchema(outCols...)
	if err != nil {
		t.Fatal(err)
	}
	frozen := *e.tokenizer
	frozen.Freeze()
	binder, err := frozen.NewCaseBinder(modelSchema)
	if err != nil {
		t.Fatal(err)
	}
	pp := &predictPlan{entry: e, plan: plan, binder: binder}
	pp.compile(srcSchema, "Age Prediction", nil, []sqlengine.SelectItem{{Expr: &sqlengine.ColumnRef{Name: "Gender"}}}, nil)
	// The schema claims a nested table but the cell carries a string.
	_, err = pp.evalCase(rowset.Row{"Male", "not-a-rowset"})
	var nte *NestedColumnTypeError
	if !errors.As(err, &nte) {
		t.Fatalf("err = %v, want *NestedColumnTypeError", err)
	}
	if nte.Column != "Product Purchases" {
		t.Errorf("error names column %q, want Product Purchases", nte.Column)
	}
	// A nil cell still means an empty basket, not an error.
	if _, err := pp.evalCase(rowset.Row{"Male", nil}); err != nil {
		t.Errorf("nil nested cell: %v", err)
	}
}
