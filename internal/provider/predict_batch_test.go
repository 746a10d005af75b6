package provider

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// TestPredictBatchMatchesPredict: for every model and predictable column of
// the golden corpus, plus a model whose posteriors tie exactly, the batch's
// columns — with histograms and without — hold for every probe case the
// figures its one-case Predict or PredictTable gives, to the bit, or
// PredictInto fails with the same error.
func TestPredictBatchMatchesPredict(t *testing.T) {
	p := MustNew()
	goldenData(t, p)
	probes := map[string]string{}
	for _, gm := range goldenModels {
		if out := goldenTrain(p, gm); strings.Contains(out, "ERROR") {
			t.Fatalf("%s: %s", gm.name, out)
		}
		probes[gm.name] = goldenProbeShape
		if gm.flat {
			probes[gm.name] = goldenFlatProbe
		}
	}
	// Three classes, each seen once with either input state: every posterior
	// is exactly a third, and the estimate is the least value, "a", which is
	// neither the first class minted nor the last.
	mustExec(t, p, `CREATE TABLE GTie (ID LONG, X TEXT, Y TEXT)`)
	mustExec(t, p, `INSERT INTO GTie VALUES (1, 'u', 'b'), (2, 'u', 'a'), (3, 'v', 'c'), (4, 'v', 'b'),
		(5, 'u', 'c'), (6, 'v', 'a'), (7, 'w', NULL), (8, NULL, 'b'), (9, NULL, 'a'), (10, NULL, 'c')`)
	mustExec(t, p, `CREATE MINING MODEL [G NB Tie] ([ID] LONG KEY, [X] TEXT DISCRETE, [Y] TEXT DISCRETE PREDICT) USING [Naive_Bayes]`)
	mustExec(t, p, `INSERT INTO [G NB Tie] ([ID], [X], [Y]) SELECT ID, X, Y FROM GTie`)
	probes["G NB Tie"] = `SELECT ID, X FROM GTie`
	if rs := mustExec(t, p, `SELECT t.ID, Predict([Y]), PredictProbability([Y]) FROM [G NB Tie]
		NATURAL PREDICTION JOIN (SELECT ID, X FROM GTie) AS t`); fmt.Sprint(rs.Row(0)[1:]) != "[a 0.3333333333333333]" {
		t.Errorf("tied posterior: %v, want the least value", rs.Row(0))
	}

	for name, probe := range probes {
		e, err := p.entry(name)
		if err != nil {
			t.Fatal(err)
		}
		src := mustExec(t, p, probe)
		frozen := *e.tokenizer
		frozen.Freeze()
		cb, err := frozen.NewCaseBinder(core.BindByName(e.model.Def.Columns, src.Schema()))
		if err != nil {
			t.Fatal(err)
		}
		var cases core.Cases
		if err := cb.TokenizeRows(t.Context(), nil, src.Rows(), &cases); err != nil {
			t.Fatal(err)
		}
		m := e.model.Trained
		for _, col := range e.model.Def.Columns {
			attr, table := -1, ""
			switch {
			case col.Content == core.ContentTable:
				table = col.Name
			case col.Content != core.ContentAttribute:
				continue
			default:
				var ok bool
				if attr, ok = e.model.Space.Lookup(col.Name); !ok {
					continue
				}
			}
			for _, hist := range []bool{false, true} {
				var out core.PredictionBatch
				out.Reset(cases.Len(), hist)
				for i := 0; i < cases.Len(); i++ {
					var want core.Prediction
					var wantErr error
					if table == "" {
						want, wantErr = m.Predict(cases.Case(i), attr)
					} else {
						want, wantErr = m.PredictTable(cases.Case(i), table)
					}
					gotErr := core.PredictInto(m, cases.Case(i), attr, table, &out, i)
					if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
						t.Fatalf("%s.%s case %d hist=%v: batch error %v, case error %v", name, col.Name, i, hist, gotErr, wantErr)
					}
					if wantErr != nil {
						continue
					}
					got := core.Prediction{Estimate: out.Estimate[i], Prob: out.Prob[i], Support: out.Support[i], Stdev: out.Stdev[i]}
					if hist {
						got.Histogram = out.Histogram[i]
					} else {
						want.Histogram = nil
					}
					if g, w := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", want); g != w {
						t.Fatalf("%s.%s case %d hist=%v:\nbatch %s\ncase  %s", name, col.Name, i, hist, g, w)
					}
				}
			}
		}
	}
}

// flakyAlgorithm is a mining service whose model cannot predict the cases whose
// key it is told to fail on, and counts the cases it is asked for; it has no
// BatchPredictor form, so its predictions reach a statement through
// core.PredictInto's Predict call.
type flakyAlgorithm struct {
	fail  map[int64]bool
	calls *atomic.Int64
}

func (flakyAlgorithm) Name() string               { return "Flaky" }
func (flakyAlgorithm) Description() string        { return "fails on chosen cases" }
func (flakyAlgorithm) SupportsPredictTable() bool { return false }
func (a flakyAlgorithm) Train(context.Context, *core.Caseset, []int, map[string]string, int) (core.TrainedModel, error) {
	return flakyModel(a), nil
}

type flakyModel flakyAlgorithm

func (flakyModel) AlgorithmName() string { return "Flaky" }
func (m flakyModel) Predict(c core.Case, _ int) (core.Prediction, error) {
	m.calls.Add(1)
	if id, _ := c.Key.(int64); m.fail[id] {
		return core.Prediction{}, fmt.Errorf("flaky: case %d", id)
	}
	return core.Prediction{Estimate: "ok", Prob: 1}, nil
}
func (flakyModel) PredictTable(core.Case, string) (core.Prediction, error) {
	return core.Prediction{}, errors.New("flaky: no tables")
}
func (flakyModel) Content() *core.ContentNode {
	return &core.ContentNode{Type: core.NodeModel, Caption: "Flaky"}
}

// TestPredictionCaseErrorsStayWithTheirRows: a case is predicted only when its
// row reads the prediction — a row the WHERE drops never does, and costs the
// model nothing — and a case the model fails on fails the statement as the
// lowest such row, over two partitions on one worker and on four.
func TestPredictionCaseErrorsStayWithTheirRows(t *testing.T) {
	rows := make([]string, 5000) // > 4096: two partitions
	for i := range rows {
		rows[i] = fmt.Sprintf("(%d, '%c')", i, 'a'+i%3)
	}
	for _, workers := range []int{1, 4} {
		p := MustNew(WithParallelism(workers))
		calls := new(atomic.Int64)
		p.Registry.Register(flakyAlgorithm{fail: map[int64]bool{7: true, 3000: true, 4500: true}, calls: calls})
		mustExec(t, p, "CREATE TABLE Src (ID LONG, X TEXT)")
		mustExec(t, p, "INSERT INTO Src VALUES "+strings.Join(rows, ", "))
		mustExec(t, p, "CREATE MINING MODEL [Flaky M] ([ID] LONG KEY, [X] TEXT DISCRETE, [Y] TEXT DISCRETE PREDICT) USING [Flaky]")
		mustExec(t, p, "INSERT INTO [Flaky M] ([ID], [X], [Y]) SELECT ID, X, X FROM Src")
		q := "SELECT t.ID, Predict([Y]), PredictProbability([Y]) FROM [Flaky M] NATURAL PREDICTION JOIN (SELECT ID, X FROM Src) AS t"
		calls.Store(0)
		rs, err := p.Execute(q + " WHERE t.ID <> 7 AND t.ID <> 3000 AND t.ID <> 4500")
		if err != nil || rs.Len() != len(rows)-3 || calls.Load() != int64(len(rows)-3) {
			t.Errorf("workers=%d: failing rows filtered out: %v, %v, %d predictions", workers, rs, err, calls.Load())
		}
		calls.Store(0)
		if rs, err := p.Execute(q + " WHERE t.ID = 4242"); err != nil || rs.Len() != 1 || calls.Load() != 1 {
			t.Errorf("workers=%d: one row kept: %v, %v, %d predictions, want 1", workers, rs, err, calls.Load())
		}
		if _, err := p.Execute(q); err == nil || !strings.Contains(err.Error(), "flaky: case 7") {
			t.Errorf("workers=%d: err = %v, want case 7's", workers, err)
		}
		if _, err := p.Execute(q + " WHERE t.ID > 100"); err == nil || !strings.Contains(err.Error(), "flaky: case 3000") {
			t.Errorf("workers=%d: err = %v, want case 3000's", workers, err)
		}
	}
}
