package dmserver_test

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dmclient"
	"repro/internal/provider"
	"repro/internal/provider/providertest"
	"repro/internal/workload"
)

// warehouseServer serves a provider over a generated warehouse of the given
// size, with the point reads' index declared on Customers.
func warehouseServer(t *testing.T, customers int) (*provider.Provider, string) {
	t.Helper()
	p := providertest.MustNew()
	if _, err := workload.Populate(p.DB, workload.Config{Customers: customers, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	tbl, err := p.DB.Table("Customers")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("Customer ID"); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, p)
	return p, addr
}

func dial(t *testing.T, addr string) *dmclient.Client {
	t.Helper()
	c, err := dmclient.New(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestInProcessAndTCPAgree (E9): Figure 1 puts an analysis server between
// the application and the provider, and the API does not depend on it — a
// single-case prediction and a whole-table prediction join return the same
// rows in-process and over TCP.
func TestInProcessAndTCPAgree(t *testing.T) {
	const customers = 200
	p, addr := warehouseServer(t, customers)
	sess := p.NewSession()
	defer sess.Close()
	ctx := context.Background()
	for _, st := range []string{
		`CREATE MINING MODEL [Bayes] ([Customer ID] LONG KEY, [Age] DOUBLE CONTINUOUS,
			[Hair Color] TEXT DISCRETE, [Gender] TEXT DISCRETE PREDICT) USING [Naive_Bayes]`,
		`INSERT INTO [Bayes] ([Customer ID], [Age], [Hair Color], [Gender])
			SELECT [Customer ID], Age, [Hair Color], Gender FROM Customers`,
	} {
		if _, err := sess.Execute(ctx, st); err != nil {
			t.Fatal(err)
		}
	}
	c := dial(t, addr)
	for _, q := range []struct {
		query string
		rows  int
	}{
		{`SELECT Predict([Gender]) FROM [Bayes] NATURAL PREDICTION JOIN (SELECT 46.0 AS Age) AS t`, 1},
		{`SELECT t.[Customer ID], Predict([Gender]) FROM [Bayes]
			NATURAL PREDICTION JOIN (SELECT [Customer ID], Age FROM Customers) AS t`, customers},
	} {
		local, err := sess.Execute(ctx, q.query)
		if err != nil {
			t.Fatal(err)
		}
		remote, err := c.Execute(q.query)
		if err != nil {
			t.Fatal(err)
		}
		if local.Len() != q.rows || !reflect.DeepEqual(local.Rows(), remote.Rows()) {
			t.Errorf("%.40q: in-process %d rows, TCP %d rows; want %d alike", q.query, local.Len(), remote.Len(), q.rows)
		}
	}
}

// TestReadsWhileRetrainingOverTCP: eight connections read — point
// predictions, point SELECTs and $SYSTEM rowsets, 5:3:2 — while a ninth
// drops, re-creates and retrains a model in a loop, so catalog snapshots
// swap under the reads. No statement fails, and afterwards the flight
// recorder holds statements that DM_QUERY_LOG knows by SEQ. Torn
// predictions under retraining are TestConcurrentPredictAndRetrain's check,
// recorder reads during traffic TestFlightRecorderReadsDuringTraffic's.
func TestReadsWhileRetrainingOverTCP(t *testing.T) {
	const customers, readers, trains, minReads = 200, 8, 10, 10
	_, addr := warehouseServer(t, customers)
	setup := dial(t, addr)
	for _, st := range workload.LoadSetupStatements() {
		if _, err := setup.Execute(st); err != nil {
			t.Fatal(err)
		}
	}
	system := []string{
		"SELECT * FROM $SYSTEM.MINING_MODELS",
		"SELECT * FROM $SYSTEM.DM_PROVIDER_METRICS",
		"SELECT * FROM $SYSTEM.MINING_COLUMNS",
	}
	read := func(w, i int) string {
		id := (w*37+i)%customers + 1
		switch i % 10 {
		case 0, 1, 2, 3, 4:
			return workload.PredictStatement(id)
		case 5, 6, 7:
			return workload.SelectStatement(id)
		}
		return system[i%len(system)]
	}

	var training atomic.Bool
	var reads atomic.Int64
	training.Store(true)
	var wg sync.WaitGroup
	wg.Add(1)
	trainer := dial(t, addr)
	go func() {
		defer wg.Done()
		defer training.Store(false)
		for range trains {
			for _, st := range workload.TrainOp().Statements {
				if _, err := trainer.Execute(st); err != nil {
					t.Errorf("train: %v", err)
					return
				}
			}
		}
	}()
	for w := range readers {
		c := dial(t, addr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < minReads || training.Load(); i++ {
				if _, err := c.Execute(read(w, i)); err != nil {
					t.Errorf("reader %d: %v", w, err)
					return
				}
				reads.Add(1)
			}
		}()
	}
	wg.Wait()
	if reads.Load() == 0 {
		t.Fatal("no read completed")
	}

	rec, err := setup.Execute("SELECT SEQ FROM $SYSTEM.DM_FLIGHT_RECORDER")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("DM_FLIGHT_RECORDER is empty after the traffic")
	}
	qlog, err := setup.Execute("SELECT SEQ FROM $SYSTEM.DM_QUERY_LOG")
	if err != nil {
		t.Fatal(err)
	}
	logged := map[any]bool{}
	for _, r := range qlog.Rows() {
		logged[r[0]] = true
	}
	for _, r := range rec.Rows() {
		if logged[r[0]] {
			return
		}
	}
	t.Errorf("none of DM_FLIGHT_RECORDER's %d rows joins the %d of DM_QUERY_LOG on SEQ", rec.Len(), qlog.Len())
}
