package main

import (
	"context"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/rowset"
	"repro/internal/workload"
)

// client is one closed-loop client: it sends its next op only after the
// previous one has returned and been checked.
type client struct {
	def *workloadDef
	c   conn
	rng *rand.Rand

	// replies and walls are per-op scratch, reused so the timed loop of a
	// 50 µs op does not allocate on the benchmark's side.
	replies []reply
	walls   []time.Duration

	lat []float64 // ms per op
	// plainLat holds the ops a traced phase ran without the sink: every
	// other op, so the span overhead is measured against ops from the same
	// stretch of time.
	plainLat []float64
	failed   int
	errs     []string // first few failures, for the report
	// hashes maps a key to the FNV-64a of the op's encoded results, for the
	// after-phase comparison of wire results with in-process ones.
	hashes map[int64]uint64
}

func (cl *client) fail(err error) {
	cl.failed++
	if len(cl.errs) < 3 {
		cl.errs = append(cl.errs, err.Error())
	}
}

// traceSink collects what the traced phase observes around each statement.
// A nil sink is the untraced run.
type traceSink struct {
	rec *recorder
	e   *env

	mu        sync.Mutex
	stmtUs    map[string][]float64 // caller-observed µs per statement name
	stages    [obs.NumStages]time.Duration
	stageWall time.Duration // Σ wall (server-side, over the wire) of the statements behind stages
	outsideUs []float64     // wire only: caller-observed − server-side µs
	results   map[string]*rowset.Rowset
}

func newTraceSink(e *env, workload string) *traceSink {
	return &traceSink{rec: newRecorder(workload), e: e, stmtUs: make(map[string][]float64), results: make(map[string]*rowset.Rowset)}
}

// observe files one statement's timing and looks its stage split up in the
// provider's query log by the seq the statement reported.
func (t *traceSink) observe(name string, wall time.Duration, r reply, wire bool) {
	rec, found := t.e.p.Obs().QueryLog().Find(r.seq)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stmtUs[name] = append(t.stmtUs[name], us(wall))
	t.results[name] = r.rs
	if wire {
		t.outsideUs = append(t.outsideUs, us(wall-r.server))
		wall = r.server // the stages split the server-side time
	}
	if found {
		for i, d := range rec.Stages {
			t.stages[i] += d
		}
		t.stageWall += wall
	}
}

func send(ctx context.Context, c conn, st *statement, key int64) (reply, error) {
	if st.handle != "" {
		return c.executePrepared(ctx, st.handle, key)
	}
	return c.execute(ctx, st.text(key))
}

// runOp runs one op on the next seeded key: the untimed prep statements on
// the in-process session, then one timed pass over stmts on the client's own
// path, then the output checks. The op's latency is the wall time of the
// timed pass; plain files it under plainLat.
func (cl *client) runOp(ctx context.Context, e *env, stmts []statement, op int, sink *traceSink, plain bool) {
	key := cl.rng.Int63n(int64(e.cfg.Scale)) + 1
	for i := range stmts {
		for _, prep := range stmts[i].prep {
			if _, err := e.local.execute(ctx, prep); err != nil {
				cl.fail(fmt.Errorf("op %d prep: %w", op, err))
				return
			}
		}
	}
	var rec *recorder
	if sink != nil {
		rec = sink.rec
	}
	layer := layerProvider
	if cl.def.wire {
		layer = layerWire
	}
	replies, walls := cl.replies, cl.walls
	var opErr error
	opSpan := rec.start("op", "client", op, 0)
	start := time.Now()
	for i := range stmts {
		st := &stmts[i]
		sp := rec.start(st.name, layer, op, opSpan)
		t0 := time.Now()
		r, err := send(ctx, cl.c, st, key)
		walls[i] = time.Since(t0)
		rec.end(sp)
		if err != nil {
			opErr = fmt.Errorf("op %d %s: %w", op, st.name, err)
			break
		}
		replies[i] = r
	}
	if lat := ms(time.Since(start)); plain {
		cl.plainLat = append(cl.plainLat, lat)
	} else {
		cl.lat = append(cl.lat, lat)
	}
	rec.end(opSpan)
	if opErr != nil {
		cl.fail(opErr)
		return
	}
	if sink != nil {
		for i := range stmts {
			sink.observe(stmts[i].name, walls[i], replies[i], cl.def.wire)
		}
	}
	var h hash.Hash64
	if cl.def.wire {
		h = fnv.New64a()
	}
	for i := range stmts {
		if err := stmts[i].check(key, replies[i].rs); err != nil {
			cl.fail(fmt.Errorf("op %d %s: %w", op, stmts[i].name, err))
			return
		}
		if cl.def.wire {
			if err := replies[i].rs.Encode(h); err != nil {
				cl.fail(fmt.Errorf("op %d %s: encode for hashing: %w", op, stmts[i].name, err))
				return
			}
		}
	}
	if cl.def.wire {
		if !cl.def.keyed {
			key = 0 // a fixed statement list: every op returns the same bytes
		}
		sum := h.Sum64()
		if prev, seen := cl.hashes[key]; seen && prev != sum {
			cl.fail(fmt.Errorf("op %d: key %d returned different bytes than an earlier op on the same key", op, key))
			return
		}
		cl.hashes[key] = sum
	}
}

// phase is the outcome of one closed-loop phase over every client.
type phase struct {
	lat      []float64 // ms per op, ascending
	plainLat []float64 // traced phase: the untraced every-other ops, ascending
	ops      int       // len(lat)
	failed   int
	errs     []string
	seconds  float64 // time clients spent inside ops, averaged over clients
	rows     int64   // input rows consumed

	mem      memDelta
	counters map[string]int64 // DM_PROVIDER_METRICS counter deltas
	trains   []float64        // ms per trainer iteration
}

type memDelta struct {
	allocBytes, allocs uint64
	gcCycles           uint32
	gcPause            time.Duration
}

func readMem() (m runtime.MemStats) { runtime.ReadMemStats(&m); return m }

// readCounters returns the counter rows of $SYSTEM.DM_PROVIDER_METRICS.
func readCounters(ctx context.Context, e *env) (map[string]int64, error) {
	out := make(map[string]int64)
	if e.p.Obs() == nil {
		return out, nil
	}
	r, err := e.local.execute(ctx, "SELECT * FROM $SYSTEM.DM_PROVIDER_METRICS")
	if err != nil {
		return nil, err
	}
	for _, row := range r.rs.Rows() {
		if row[1] == "counter" {
			name, _ := row[0].(string)
			out[name], _ = row[3].(int64)
		}
	}
	return out, nil
}

func newClient(def *workloadDef, e *env, c conn, stmts int, stream int) *client {
	return &client{def: def, c: c, hashes: make(map[int64]uint64),
		replies: make([]reply, stmts), walls: make([]time.Duration, stmts),
		rng: rand.New(rand.NewSource(e.cfg.Seed*1_000_003 + int64(stream)))}
}

// runPhase drives every client of e in a closed loop until d has passed
// (each client finishes the op it is in, and runs at least one). opBase
// numbers the ops so span op IDs stay unique across phases. With a sink, each
// client traces every other op and runs the ones between untraced.
func runPhase(ctx context.Context, def *workloadDef, e *env, stmts []statement, d time.Duration, sink *traceSink, opBase int) (*phase, error) {
	clients := make([]*client, len(e.clients))
	for i, c := range e.clients {
		clients[i] = newClient(def, e, c, len(stmts), opBase+i)
	}
	before, err := readCounters(ctx, e)
	if err != nil {
		return nil, err
	}
	ph := &phase{counters: make(map[string]int64)}
	var stopTrainer atomic.Bool
	var trainerDone chan error
	if def.trainer {
		trainerDone = make(chan error, 1)
		go func() { trainerDone <- runTrainer(ctx, e, &stopTrainer, &ph.trains) }()
	}
	m0 := readMem()
	minOps := 1
	if sink != nil {
		minOps = 2 // one untraced, one traced
	}
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *client) {
			defer wg.Done()
			for n := 0; n < minOps || time.Now().Before(deadline); n++ {
				plain := sink != nil && n%2 == 0
				s := sink
				if plain {
					s = nil
				}
				// Op IDs interleave the clients: client i runs ops i, i+clients, …
				cl.runOp(ctx, e, stmts, opBase+n*len(clients)+i, s, plain)
			}
		}(i, cl)
	}
	wg.Wait()
	m1 := readMem()
	if def.trainer {
		stopTrainer.Store(true)
		if err := <-trainerDone; err != nil {
			ph.failed++
			ph.errs = append(ph.errs, "trainer: "+err.Error())
		}
	}
	after, err := readCounters(ctx, e)
	if err != nil {
		return nil, err
	}
	for name, v := range after {
		ph.counters[name] = v - before[name]
	}
	ph.mem = memDelta{allocBytes: m1.TotalAlloc - m0.TotalAlloc, allocs: m1.Mallocs - m0.Mallocs,
		gcCycles: m1.NumGC - m0.NumGC, gcPause: time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)}

	var opRows int64
	for i := range stmts {
		opRows += stmts[i].rows
	}
	hashes := make(map[int64]uint64)
	for _, cl := range clients {
		ph.lat = append(ph.lat, cl.lat...)
		ph.plainLat = append(ph.plainLat, cl.plainLat...)
		ph.failed += cl.failed
		ph.errs = append(ph.errs, cl.errs...)
		for _, ms := range cl.lat {
			ph.seconds += ms / 1e3
		}
		for k, h := range cl.hashes {
			if prev, seen := hashes[k]; seen && prev != h {
				ph.failed++
				ph.errs = append(ph.errs, fmt.Sprintf("key %d: two clients received different bytes", k))
			}
			hashes[k] = h
		}
	}
	ph.ops = len(ph.lat)
	ph.seconds /= float64(len(clients))
	ph.rows = opRows * int64(ph.ops)
	sort.Float64s(ph.lat)
	sort.Float64s(ph.plainLat)
	if def.wire {
		verifyAgainstInProcess(ctx, e, stmts, hashes, ph)
	}
	return ph, nil
}

// verifyAgainstInProcess re-runs the op for every key the wire clients
// touched on the in-process session and compares the FNV-64a of the encoded
// results: what crossed the wire must be byte-identical to what the provider
// returns directly. Each mismatching key counts as a failed op.
func verifyAgainstInProcess(ctx context.Context, e *env, stmts []statement, hashes map[int64]uint64, ph *phase) {
	for key, want := range hashes {
		h := fnv.New64a()
		for i := range stmts {
			r, err := send(ctx, e.local, &stmts[i], key)
			if err == nil {
				err = r.rs.Encode(h)
			}
			if err != nil {
				ph.failed++
				ph.errs = append(ph.errs, fmt.Sprintf("key %d in-process reference: %v", key, err))
				return
			}
		}
		if h.Sum64() != want {
			ph.failed++
			if len(ph.errs) < 3 {
				ph.errs = append(ph.errs, fmt.Sprintf("key %d: wire result differs from the in-process result", key))
			}
		}
	}
}

// runTrainer loops workload.TrainOp on its own session until told to stop,
// timing each iteration on its own clock.
func runTrainer(ctx context.Context, e *env, stop *atomic.Bool, trains *[]float64) error {
	sess := sessionConn{e.p.NewSession()}
	defer sess.close()
	for !stop.Load() {
		start := time.Now()
		for _, stmt := range workload.TrainOp().Statements {
			if _, err := sess.execute(ctx, stmt); err != nil {
				return err
			}
		}
		*trains = append(*trains, ms(time.Since(start)))
	}
	return nil
}
