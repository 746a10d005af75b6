package provider

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/rowset"
)

// TestSessionPreparedScoped proves prepared-statement names are per-session:
// the same name on two sessions binds two different statements, and
// deallocating on one session leaves the other's handle intact.
func TestSessionPreparedScoped(t *testing.T) {
	p := MustNew()
	mustExec(t, p, "CREATE TABLE T (ID LONG, V DOUBLE)")
	mustExec(t, p, "INSERT INTO T VALUES (1, 10), (2, 20)")
	ctx := context.Background()

	s1, s2 := p.NewSession(), p.NewSession()
	defer s1.Close() //nolint:errcheck
	defer s2.Close() //nolint:errcheck
	if _, err := s1.Prepare(ctx, "q", "SELECT V FROM T WHERE ID = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Prepare(ctx, "q", "SELECT V FROM T WHERE ID = 2"); err != nil {
		t.Fatal(err)
	}

	want := func(s *Session, exp float64) {
		t.Helper()
		rs, err := s.ExecutePrepared(ctx, "q", nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := rs.Row(0)[0]; got != exp {
			t.Fatalf("ExecutePrepared(q) = %v, want %v", got, exp)
		}
	}
	want(s1, 10.0)
	want(s2, 20.0)

	if err := s1.Deallocate("q"); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.ExecutePrepared(ctx, "q", nil); err == nil {
		t.Fatal("s1 still executes q after Deallocate")
	}
	want(s2, 20.0) // the sibling session's handle survives

	// A third session never saw "q".
	if names := p.NewSession().PreparedNames(); len(names) != 0 {
		t.Fatalf("fresh session has prepared statements %v, want none", names)
	}
}

// TestSessionClosed pins the closed-session surface: every entry point
// returns ErrSessionClosed and Close is idempotent.
func TestSessionClosed(t *testing.T) {
	p := MustNew()
	mustExec(t, p, "CREATE TABLE C (ID LONG)")
	ctx := context.Background()
	s := p.NewSession()
	if _, err := s.Prepare(ctx, "q", "SELECT ID FROM C"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := s.Execute(ctx, "SELECT ID FROM C"); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Execute after Close: %v, want ErrSessionClosed", err)
	}
	if _, err := s.Prepare(ctx, "q2", "SELECT ID FROM C"); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Prepare after Close: %v, want ErrSessionClosed", err)
	}
	if _, err := s.ExecutePrepared(ctx, "q", nil); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("ExecutePrepared after Close: %v, want ErrSessionClosed", err)
	}
}

// TestSessionAdmissionBusy drives the admission gate directly: with
// max-in-flight 1, one statement holds the slot, one waits in the queue, and
// the third is shed with a typed BusyError while the queue-depth and
// rejection metrics track each transition.
func TestSessionAdmissionBusy(t *testing.T) {
	p := MustNew()
	s := p.NewSession(WithSessionMaxInFlight(1))
	defer s.Close() //nolint:errcheck
	ctx := context.Background()

	if err := s.adm.acquire(ctx); err != nil { // occupies the single slot
		t.Fatal(err)
	}
	if got := p.admInFlight.Value(); got != 1 {
		t.Fatalf("admission_inflight = %d, want 1", got)
	}

	// Second acquire parks in the queue until the slot frees.
	waited := make(chan error, 1)
	go func() { waited <- s.adm.acquire(ctx) }()
	deadline := time.Now().Add(2 * time.Second)
	for p.admQueueDepth.Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second acquire never reached the wait queue")
		}
		time.Sleep(time.Millisecond)
	}

	// Slot taken, queue full: the third caller is shed immediately.
	err := s.adm.acquire(ctx)
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("third acquire: %v, want *BusyError", err)
	}
	if !IsBusy(err) || busy.MaxInFlight != 1 {
		t.Fatalf("BusyError = %+v, IsBusy = %v", busy, IsBusy(err))
	}
	if got := p.admRejected.Value(); got != 1 {
		t.Fatalf("admission_rejected_total = %d, want 1", got)
	}

	s.adm.release() // frees the slot; the queued caller takes it
	if err := <-waited; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	s.adm.release()
	if got := p.admInFlight.Value(); got != 0 {
		t.Fatalf("admission_inflight after release = %d, want 0", got)
	}
	if got := p.admQueueDepth.Value(); got != 0 {
		t.Fatalf("admission_queue_depth after release = %d, want 0", got)
	}
}

// TestSessionAdmissionQueueRespectsCancel: a caller parked in the wait queue
// leaves when its context is cancelled instead of waiting forever.
func TestSessionAdmissionQueueRespectsCancel(t *testing.T) {
	p := MustNew()
	s := p.NewSession(WithSessionMaxInFlight(1))
	defer s.Close() //nolint:errcheck
	if err := s.adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.adm.release()

	ctx, cancel := context.WithCancel(context.Background())
	waited := make(chan error, 1)
	go func() { waited <- s.adm.acquire(ctx) }()
	deadline := time.Now().Add(2 * time.Second)
	for p.admQueueDepth.Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("acquire never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-waited; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled queued acquire: %v, want context.Canceled", err)
	}
	if got := p.admQueueDepth.Value(); got != 0 {
		t.Fatalf("admission_queue_depth after cancel = %d, want 0", got)
	}
}

// TestNamesSorted pins the ordering contract on both catalogs: ModelNames
// and PreparedNames return ascending order regardless of insertion order.
func TestNamesSorted(t *testing.T) {
	p := MustNew()
	mustExec(t, p, "CREATE TABLE N (ID LONG, V DOUBLE)")
	for _, m := range []string{"Zeta", "Alpha", "Mid"} {
		mustExec(t, p, fmt.Sprintf(`CREATE MINING MODEL [%s] (
			[ID] LONG KEY, [V] DOUBLE CONTINUOUS PREDICT) USING [Decision_Trees]`, m))
	}
	if names := p.ModelNames(); !sort.StringsAreSorted(names) || len(names) != 3 {
		t.Fatalf("ModelNames() = %v, want 3 sorted names", names)
	}

	ctx := context.Background()
	s := p.NewSession()
	defer s.Close() //nolint:errcheck
	for _, n := range []string{"zq", "aq", "mq"} {
		if _, err := s.Prepare(ctx, n, "SELECT V FROM N"); err != nil {
			t.Fatal(err)
		}
	}
	if names := s.PreparedNames(); !sort.StringsAreSorted(names) || len(names) != 3 {
		t.Fatalf("PreparedNames() = %v, want 3 sorted names", names)
	}
}

// TestSnapshotReadersUnderTrainingLoop is the snapshot/epoch stress test:
// eight reader sessions issue point predictions and $SYSTEM catalog reads
// while a training loop drops, re-creates, and retrains a second model. On
// the copy-on-write catalog the readers must (a) never fail, (b) never see a
// torn snapshot — predictions stay inside the training envelope, the
// catalog rowset always lists coherent rows — and (c) keep completing while
// training commits are in flight. Run under -race this also proves the
// snapshot swap itself is race-clean.
func TestSnapshotReadersUnderTrainingLoop(t *testing.T) {
	p := MustNew()
	mustExec(t, p, "CREATE TABLE People (ID LONG, Gender TEXT, Age DOUBLE)")
	var vals []string
	for i := 1; i <= 40; i++ {
		g := "Male"
		if i%2 == 0 {
			g = "Female"
		}
		vals = append(vals, fmt.Sprintf("(%d, '%s', %d)", i, g, 20+i%30))
	}
	mustExec(t, p, "INSERT INTO People VALUES "+joinStrs(vals))

	const stableDDL = `CREATE MINING MODEL [Stable] (
		[ID] LONG KEY, [Gender] TEXT DISCRETE, [Age] DOUBLE CONTINUOUS PREDICT
	) USING [Decision_Trees]`
	const churnDDL = `CREATE MINING MODEL [Churn] (
		[ID] LONG KEY, [Gender] TEXT DISCRETE, [Age] DOUBLE CONTINUOUS PREDICT
	) USING [Decision_Trees]`
	const trainStable = `INSERT INTO [Stable] ([ID], [Gender], [Age]) SELECT ID, Gender, Age FROM People`
	const trainChurn = `INSERT INTO [Churn] ([ID], [Gender], [Age]) SELECT ID, Gender, Age FROM People`
	mustExec(t, p, stableDDL)
	mustExec(t, p, trainStable)
	mustExec(t, p, churnDDL)

	const lo, hi = 20.0, 50.0
	predictQ := `SELECT t.ID, Predict([Age]) AS est FROM [Stable]
		NATURAL PREDICTION JOIN (SELECT ID, Gender FROM People WHERE ID = %d) AS t`

	const readers = 8
	const opsPerReader = 40
	var wg sync.WaitGroup
	errc := make(chan error, readers+1)
	trainingDone := make(chan struct{})

	// Training loop: catalog churn (drop + create = two snapshot swaps per
	// round) plus full training commits, all serialized on commitMu.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(trainingDone)
		sess := p.NewSession(WithSessionOrigin("trainer"))
		defer sess.Close() //nolint:errcheck
		ctx := context.Background()
		for i := 0; i < 10; i++ {
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
			var worst time.Duration
			for i := 0; i < opsPerReader; i++ {
				begin := time.Now()
				if i%4 == 3 {
					// Catalog read: the model list must always be coherent
					// and sorted, whatever swap interleaving we land on.
					rs, err := sess.Execute(ctx, "SELECT * FROM $SYSTEM.MINING_MODELS")
					if err != nil {
						errc <- fmt.Errorf("reader %d: %w", r, err)
						return
					}
					if n := rs.Len(); n < 1 || n > 2 {
						errc <- fmt.Errorf("reader %d: torn catalog: %d models listed", r, n)
						return
					}
				} else {
					rs, err := sess.Execute(ctx, fmt.Sprintf(predictQ, i%40+1))
					if err != nil {
						errc <- fmt.Errorf("reader %d: %w", r, err)
						return
					}
					f, ok := rowset.ToFloat(rs.Row(0)[1])
					if !ok || f < lo || f >= hi {
						errc <- fmt.Errorf("reader %d: torn prediction %v outside [%v, %v)", r, rs.Row(0)[1], lo, hi)
						return
					}
				}
				if d := time.Since(begin); d > worst {
					worst = d
				}
			}
			// Readers never block behind a training commit, so even under
			// -race on a loaded host no single read should take seconds. The
			// bound is deliberately loose: it catches lock-convoy regressions
			// (reads queueing behind training), not scheduler jitter.
			if worst > 5*time.Second {
				errc <- fmt.Errorf("reader %d: slowest read took %v — readers are blocking on training", r, worst)
			}
		}(r)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	<-trainingDone
	if names := p.ModelNames(); !sort.StringsAreSorted(names) {
		t.Errorf("ModelNames() after churn = %v, want sorted", names)
	}
}
