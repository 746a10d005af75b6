package provider

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
)

// Partitioned shapes (full scan of one base table): the GROUP BY statement
// merges per-partition aggregate states, the filter statement per-partition
// projections. The JOIN statement exercises the hash-join build + batch probe
// under the same concurrency.
const (
	morselGroupBy = `SELECT Gender, COUNT(*), AVG(Age), MIN(Age), MAX(Age)
		FROM Customers GROUP BY Gender ORDER BY Gender`
	morselFilter = `SELECT [Customer ID], Gender, Age FROM Customers
		WHERE Age > 21 AND Age < 60 AND Gender = 'Male'`
	hashJoinQ = `SELECT c.[Customer ID], s.[Product Name], s.Quantity
		FROM Customers c JOIN Sales s ON c.[Customer ID] = s.CustID
		ORDER BY c.[Customer ID], s.[Product Name], s.Quantity`
)

// morselRows puts Customers (and Sales) above the engine's partition size, so
// full scans run as three partitions.
const morselRows = 2*storage.DefaultMorselSize + 100

// morselProvider returns a four-worker provider over morselRows customers:
// the partition fan-out runs on goroutines even on a single-core host, because
// the partition layout depends on the table alone.
func morselProvider(t testing.TB) *Provider {
	t.Helper()
	p := MustNew(WithParallelism(4))
	setupCustomerData(t, p, morselRows)
	return p
}

// TestMorselParallelUnderConcurrentTraining runs partitioned GROUP BY, scans
// and hash joins from eight concurrent sessions while a training loop churns
// the model catalog (train, drop, re-create — two snapshot swaps per round).
// Under -race this proves the per-partition aggregation workers, the shared
// table snapshot, and the join index the partitions probe are race-clean against
// catalog commits; the byte comparison against single-threaded baselines
// proves the partition-order merge keeps results deterministic under any
// interleaving.
func TestMorselParallelUnderConcurrentTraining(t *testing.T) {
	p := morselProvider(t)
	mustExec(t, p, createAgeModel)
	mustExec(t, p, insertAgeModel)

	queries := []string{morselGroupBy, morselFilter, hashJoinQ}
	baseline := make([][]byte, len(queries))
	for i, q := range queries {
		var buf bytes.Buffer
		if err := mustExec(t, p, q).Encode(&buf); err != nil {
			t.Fatal(err)
		}
		baseline[i] = buf.Bytes()
	}

	const churnDDL = `CREATE MINING MODEL [Churn] (
		[Customer ID] LONG KEY, [Gender] TEXT DISCRETE, [Age] DOUBLE CONTINUOUS PREDICT
	) USING [Decision_Trees]`
	const trainChurn = `INSERT INTO [Churn] ([Customer ID], [Gender], [Age])
		SELECT [Customer ID], Gender, Age FROM Customers`
	mustExec(t, p, churnDDL)

	const readers = 8
	const opsPerReader = 24
	var wg sync.WaitGroup
	errc := make(chan error, readers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		sess := p.NewSession(WithSessionOrigin("trainer"))
		defer sess.Close() //nolint:errcheck
		ctx := context.Background()
		for i := 0; i < 8; i++ {
			for _, stmt := range []string{trainChurn, "DROP MINING MODEL [Churn]", churnDDL} {
				if _, err := sess.Execute(ctx, stmt); err != nil {
					errc <- fmt.Errorf("trainer: %w", err)
					return
				}
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sess := p.NewSession(WithSessionOrigin(fmt.Sprintf("reader-%d", r)))
			defer sess.Close() //nolint:errcheck
			ctx := context.Background()
			for i := 0; i < opsPerReader; i++ {
				qi := (r + i) % len(queries)
				rs, err := sess.Execute(ctx, queries[qi])
				if err != nil {
					errc <- fmt.Errorf("reader %d: %.50q: %w", r, queries[qi], err)
					return
				}
				var buf bytes.Buffer
				if err := rs.Encode(&buf); err != nil {
					errc <- err
					return
				}
				if !bytes.Equal(buf.Bytes(), baseline[qi]) {
					errc <- fmt.Errorf("reader %d: %.50q: result differs from baseline (%d rows)",
						r, queries[qi], rs.Len())
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestMorselEarlyAbandonNoGoroutineLeak abandons partitioned statements
// partway — contexts cancelled at staggered points over the scan's lifetime,
// plus TOP statements whose consumer closes the batch pipeline early after
// the first few rows — and asserts every fan-out worker exits: the goroutine
// count settles back to the pre-stress baseline.
func TestMorselEarlyAbandonNoGoroutineLeak(t *testing.T) {
	p := morselProvider(t)
	baseline := runtime.NumGoroutine()

	// TOP without ORDER BY streams: the drain stops pulling after 5 rows and
	// closes the cursor with batches still unconsumed.
	const earlyClose = `SELECT TOP 5 [Customer ID], Age FROM Customers WHERE Age > 20`

	sess := p.NewSession(WithSessionOrigin("abandoner"))
	defer sess.Close() //nolint:errcheck
	stmts := []string{morselGroupBy, morselFilter, earlyClose}
	for i := 0; i < 48; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		delay := time.Duration(i%12) * 100 * time.Microsecond
		timer := time.AfterFunc(delay, cancel)
		_, err := sess.Execute(ctx, stmts[i%len(stmts)])
		timer.Stop()
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("statement %d: unexpected error class: %v", i, err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d now vs %d baseline\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
