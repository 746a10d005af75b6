// Dmload is a pgbench-style traffic generator for the mining provider: it
// drives a dmserver over TCP with a mixed DMX workload (point predictions,
// point SELECTs, $SYSTEM rowset reads) from many concurrent connections and
// reports throughput plus per-class p50/p95/p99 latency.
//
// The run has two equal phases. Phase one ("idle") is readers only; phase
// two ("training") adds trainer connections that drop, re-create, and
// retrain [Load Train] in a loop, so catalog snapshots keep swapping while
// reads are in flight. The headline number is the ratio of read p95 latency
// between the phases — on the snapshot/epoch provider it should stay small,
// because readers never block on training.
//
// By default dmload starts an in-process dmserver over a seeded synthetic
// warehouse and tears it down afterwards; -addr points it at an external
// server instead (which must already hold the workload warehouse, e.g.
// dmserver -demo).
//
//	go run ./cmd/dmload -conns 8 -duration 10s
//	go run ./cmd/dmload -conns 16 -rate 2000 -json load.json
//	go run ./cmd/dmload -check-ratio 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/dmclient"
	"repro/internal/dmserver"
	"repro/internal/provider"
	"repro/internal/rowset"
	"repro/internal/workload"
)

func main() {
	var (
		addr        = flag.String("addr", "", "drive an existing dmserver at this address (default: start one in-process)")
		conns       = flag.Int("conns", 8, "reader connections")
		trainConns  = flag.Int("train-conns", 1, "trainer connections during the training phase")
		duration    = flag.Duration("duration", 10*time.Second, "total run time, split evenly between the idle and training phases")
		scale       = flag.Int("scale", 500, "customers in the seeded warehouse (in-process server only)")
		seed        = flag.Int64("seed", 1, "workload seed: data generation and statement mix")
		mix         = flag.String("mix", "5:3:2", "predict:select:system read mix weights")
		rate        = flag.Float64("rate", 0, "open-loop aggregate target in ops/sec (0 = closed loop)")
		maxInflight = flag.Int("max-inflight", 0, "per-connection admission bound (in-process server only, 0 = unbounded)")
		jsonPath    = flag.String("json", "", "write the LoadReport as JSON to this file")
		checkRatio  = flag.Float64("check-ratio", 0, "fail unless training-phase read p95 is within this factor of idle p95 (0 = no check)")
		slo         = flag.Duration("slo", 0, "log statements slower than this with their server seq (0 = off)")
		checkRec    = flag.Bool("check-recorder", false, "after the run, assert $SYSTEM.DM_FLIGHT_RECORDER is non-empty and joins DM_QUERY_LOG on SEQ")
	)
	flag.Parse()

	weights, err := parseMix(*mix)
	if err != nil {
		fatal(err)
	}
	if *conns < 1 {
		fatal(fmt.Errorf("dmload: -conns must be at least 1"))
	}

	target := *addr
	if target == "" {
		stop, bound, err := startServer(*scale, *seed, *maxInflight)
		if err != nil {
			fatal(err)
		}
		defer stop()
		target = bound
		fmt.Printf("in-process dmserver on %s (scale %d, seed %d)\n", target, *scale, *seed)
	}

	if err := setupModels(target); err != nil {
		fatal(err)
	}

	cfg := phaseConfig{
		addr:      target,
		conns:     *conns,
		duration:  *duration / 2,
		seed:      *seed,
		customers: *scale,
		weights:   weights,
		rate:      *rate,
		slo:       *slo,
	}
	fmt.Printf("phase 1/2: idle — %d readers, %v\n", cfg.conns, cfg.duration)
	idle := runPhase(cfg)
	cfg.trainConns = *trainConns
	fmt.Printf("phase 2/2: training — %d readers + %d trainers, %v\n", cfg.conns, cfg.trainConns, cfg.duration)
	training := runPhase(cfg)

	report := buildReport(*conns, *trainConns, *scale, *seed, *rate, idle, training)
	printReport(report)
	printSlow(*slo, idle, training)

	if *checkRec {
		if err := checkFlightRecorder(target); err != nil {
			fatal(err)
		}
	}

	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, report); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}

	switch {
	case report.Ops == 0:
		fatal(fmt.Errorf("dmload: zero operations completed"))
	case report.Errors > 0:
		fatal(fmt.Errorf("dmload: %d operations failed", report.Errors))
	case *checkRatio > 0 && report.TrainingReadP95Ratio > *checkRatio:
		fatal(fmt.Errorf("dmload: training-phase read p95 is %.2fx idle (limit %.1fx)",
			report.TrainingReadP95Ratio, *checkRatio))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// parseMix reads "predict:select:system" weights.
func parseMix(s string) (workload.MixWeights, error) {
	var w workload.MixWeights
	if n, err := fmt.Sscanf(strings.TrimSpace(s), "%d:%d:%d", &w.Predict, &w.Select, &w.System); err != nil || n != 3 {
		return w, fmt.Errorf("dmload: bad -mix %q, want predict:select:system (e.g. 5:3:2)", s)
	}
	if w.Predict < 0 || w.Select < 0 || w.System < 0 || w.Predict+w.Select+w.System == 0 {
		return w, fmt.Errorf("dmload: -mix weights must be non-negative and not all zero")
	}
	return w, nil
}

// startServer builds the in-process provider + seeded warehouse and serves
// it on a loopback TCP port, returning a shutdown func and the bound address.
func startServer(scale int, seed int64, maxInflight int) (func(), string, error) {
	var opts []provider.Option
	if maxInflight > 0 {
		opts = append(opts, provider.WithMaxInFlight(maxInflight))
	}
	p, err := provider.New(opts...)
	if err != nil {
		return nil, "", err
	}
	if _, err := workload.Populate(p.DB, workload.Config{Customers: scale, Seed: seed}); err != nil {
		return nil, "", err
	}
	// Point reads should measure statement processing, not table scans.
	tbl, err := p.DB.Table("Customers")
	if err != nil {
		return nil, "", err
	}
	if err := tbl.CreateIndex("Customer ID"); err != nil {
		return nil, "", err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := dmserver.New(p)
	go srv.Serve(l)                                       //nolint:errcheck
	return func() { srv.Close() }, l.Addr().String(), nil //nolint:errcheck
}

// setupModels (re-)creates and trains the harness models over the wire, so
// the same sequence works for in-process and external servers alike.
func setupModels(addr string) error {
	c, err := dmclient.New(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	for _, m := range []string{workload.LoadModelName, workload.LoadTrainName} {
		c.Execute(fmt.Sprintf("DROP MINING MODEL [%s]", m)) //nolint:errcheck // absent on first run
	}
	for _, stmt := range workload.LoadSetupStatements() {
		if _, err := c.Execute(stmt); err != nil {
			return fmt.Errorf("dmload setup: %w\nstatement:\n%s", err, stmt)
		}
	}
	return nil
}

// phaseConfig parameterizes one measurement phase.
type phaseConfig struct {
	addr       string
	conns      int
	trainConns int
	duration   time.Duration
	seed       int64
	customers  int
	weights    workload.MixWeights
	rate       float64       // aggregate open-loop ops/sec; 0 = closed loop
	slo        time.Duration // per-statement latency SLO; 0 = no slow logging
}

// phaseResult aggregates every worker's samples for one phase.
type phaseResult struct {
	elapsed time.Duration
	byKind  map[workload.OpKind][]time.Duration
	errors  int64
	busy    int64
	slow    []slowStmt
}

// slowStmt is one statement that missed the -slo budget (or failed): its
// server-assigned query-log seq is the handle for pulling the statement's
// DM_QUERY_LOG / DM_FLIGHT_RECORDER rows afterwards.
type slowStmt struct {
	seq     int64
	kind    workload.OpKind
	elapsed time.Duration
	errMsg  string
}

// runPhase drives the configured connections until the phase deadline and
// collects latency samples. Closed loop: each connection issues its next
// operation as soon as the previous one completes. Open loop (-rate): a
// dispatcher emits arrival ticks at the target rate and latency is measured
// from the scheduled arrival, so queueing delay counts against the server.
func runPhase(cfg phaseConfig) phaseResult {
	start := time.Now()
	deadline := start.Add(cfg.duration)

	var arrivals chan time.Time
	if cfg.rate > 0 {
		arrivals = make(chan time.Time, cfg.conns)
		go func() {
			interval := time.Duration(float64(time.Second) / cfg.rate)
			tick := time.NewTicker(interval)
			defer tick.Stop()
			defer close(arrivals)
			for now := range tick.C {
				if now.After(deadline) {
					return
				}
				select {
				case arrivals <- now:
				default: // every connection busy: shed, the tick is lost
				}
			}
		}()
	}

	results := make([]workerStats, cfg.conns+cfg.trainConns)
	var wg sync.WaitGroup
	for i := 0; i < cfg.conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = readWorker(cfg, i, deadline, arrivals)
		}(i)
	}
	for i := 0; i < cfg.trainConns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[cfg.conns+i] = trainWorker(cfg, deadline)
		}(i)
	}
	wg.Wait()

	res := phaseResult{elapsed: time.Since(start), byKind: map[workload.OpKind][]time.Duration{}}
	for _, r := range results {
		for k, ds := range r.byKind {
			res.byKind[k] = append(res.byKind[k], ds...)
		}
		res.errors += r.errors
		res.busy += r.busy
		res.slow = append(res.slow, r.slow...)
	}
	return res
}

type workerStats struct {
	byKind map[workload.OpKind][]time.Duration
	errors int64
	busy   int64
	slo    time.Duration
	slow   []slowStmt
}

// readWorker runs the deterministic read mix on one connection until the
// deadline. Each worker's mix is seeded from (run seed, worker index) so
// runs are reproducible and workers do not issue identical streams.
func readWorker(cfg phaseConfig, idx int, deadline time.Time, arrivals <-chan time.Time) workerStats {
	st := workerStats{byKind: map[workload.OpKind][]time.Duration{}, slo: cfg.slo}
	c, err := dmclient.New(cfg.addr)
	if err != nil {
		st.errors++
		return st
	}
	defer c.Close()
	mix := workload.NewLoadMix(cfg.seed+int64(idx)*7919, cfg.customers, cfg.weights)
	for {
		var begin time.Time
		if arrivals != nil {
			at, ok := <-arrivals
			if !ok {
				return st
			}
			begin = at
		} else {
			begin = time.Now()
			if begin.After(deadline) {
				return st
			}
		}
		op := mix.Next()
		if runOp(c, op, &st) {
			st.byKind[op.Kind] = append(st.byKind[op.Kind], time.Since(begin))
		}
	}
}

// trainWorker loops full retrains of [Load Train] on its own connection.
func trainWorker(cfg phaseConfig, deadline time.Time) workerStats {
	st := workerStats{byKind: map[workload.OpKind][]time.Duration{}, slo: cfg.slo}
	c, err := dmclient.New(cfg.addr)
	if err != nil {
		st.errors++
		return st
	}
	defer c.Close()
	for {
		begin := time.Now()
		if begin.After(deadline) {
			return st
		}
		op := workload.TrainOp()
		if runOp(c, op, &st) {
			st.byKind[op.Kind] = append(st.byKind[op.Kind], time.Since(begin))
		}
	}
}

// runOp executes one operation's statements in order; it reports whether the
// whole unit succeeded. Admission-control busy rejections are intentional
// load shedding and counted separately from errors. With -slo set, any
// statement over budget (or failing) is recorded with the server's query-log
// seq from the response's stats, so it can be pulled back out of
// $SYSTEM.DM_QUERY_LOG / DM_FLIGHT_RECORDER by key after the run.
func runOp(c *dmclient.Client, op workload.Op, st *workerStats) bool {
	for _, stmt := range op.Statements {
		begin := time.Now()
		_, err := c.Execute(stmt)
		took := time.Since(begin)
		if err != nil {
			busy := strings.Contains(err.Error(), "session is busy")
			if busy {
				st.busy++
			} else {
				st.errors++
			}
			if st.slo > 0 && !busy {
				st.slow = append(st.slow, slowStmt{seq: trailerSeq(c), kind: op.Kind, elapsed: took, errMsg: err.Error()})
			}
			return false
		}
		if st.slo > 0 && took > st.slo {
			st.slow = append(st.slow, slowStmt{seq: trailerSeq(c), kind: op.Kind, elapsed: took})
		}
	}
	return true
}

// trailerSeq reads the last statement's seq from the client's stats (0 when
// the server ran with observability off or never answered).
func trailerSeq(c *dmclient.Client) int64 {
	if stats, ok := c.Stats(); ok {
		return stats.Seq
	}
	return 0
}

// printSlow reports the statements that missed the SLO, worst first, capped
// so a badly misconfigured budget does not flood the terminal.
func printSlow(slo time.Duration, phases ...phaseResult) {
	if slo == 0 {
		return
	}
	var all []slowStmt
	for _, ph := range phases {
		all = append(all, ph.slow...)
	}
	if len(all) == 0 {
		fmt.Printf("slo: all statements within %v\n", slo)
		return
	}
	sortSlowDesc(all)
	const maxLines = 20
	fmt.Printf("slo: %d statements over %v (worst %d shown; look rows up by seq in $SYSTEM.DM_FLIGHT_RECORDER)\n",
		len(all), slo, min(maxLines, len(all)))
	for i, s := range all {
		if i == maxLines {
			break
		}
		line := fmt.Sprintf("  seq=%-8d %-8s %9dµ", s.seq, s.kind, s.elapsed.Microseconds())
		if s.errMsg != "" {
			line += " error: " + s.errMsg
		}
		fmt.Println(line)
	}
}

func sortSlowDesc(ss []slowStmt) {
	sort.Slice(ss, func(i, j int) bool { return ss[i].elapsed > ss[j].elapsed })
}

// checkFlightRecorder pulls $SYSTEM.DM_FLIGHT_RECORDER and DM_QUERY_LOG over
// the wire after the run and performs the client-side join: the recorder must
// hold records, and its SEQ values must intersect the query log's (the log is
// a FIFO ring, so old retained records may legitimately have scrolled out of
// it — an empty intersection, not a partial one, is the failure).
func checkFlightRecorder(addr string) error {
	c, err := dmclient.New(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	rec, err := c.Execute("SELECT * FROM $SYSTEM.DM_FLIGHT_RECORDER")
	if err != nil {
		return fmt.Errorf("dmload: -check-recorder: %w", err)
	}
	if rec.Len() == 0 {
		return fmt.Errorf("dmload: -check-recorder: DM_FLIGHT_RECORDER is empty after the run")
	}
	qlog, err := c.Execute("SELECT * FROM $SYSTEM.DM_QUERY_LOG")
	if err != nil {
		return fmt.Errorf("dmload: -check-recorder: %w", err)
	}
	logSeqs := map[int64]bool{}
	for i := 0; i < qlog.Len(); i++ {
		if seq, ok := seqValue(qlog, i); ok {
			logSeqs[seq] = true
		}
	}
	// The recorder rowset renders one row per span node; dedupe to distinct
	// statements before joining.
	recSeqs := map[int64]bool{}
	for i := 0; i < rec.Len(); i++ {
		if seq, ok := seqValue(rec, i); ok {
			recSeqs[seq] = true
		}
	}
	joined := 0
	for seq := range recSeqs {
		if logSeqs[seq] {
			joined++
		}
	}
	if joined == 0 {
		return fmt.Errorf("dmload: -check-recorder: no DM_FLIGHT_RECORDER SEQ joins DM_QUERY_LOG (%d recorder statements, %d log rows)",
			len(recSeqs), qlog.Len())
	}
	fmt.Printf("flight recorder: %d retained statements, %d join DM_QUERY_LOG on SEQ\n", len(recSeqs), joined)
	return nil
}

// seqValue reads row i's SEQ column as an int64.
func seqValue(rs *rowset.Rowset, i int) (int64, bool) {
	v, err := rs.Value(i, "SEQ")
	if err != nil {
		return 0, false
	}
	n, ok := v.(int64)
	return n, ok
}

// readSamples pools a phase's read-class samples (everything but train).
func readSamples(r phaseResult) []time.Duration {
	var all []time.Duration
	for k, ds := range r.byKind {
		if k != workload.OpTrain {
			all = append(all, ds...)
		}
	}
	return all
}

func buildReport(conns, trainConns, scale int, seed int64, rate float64, idle, training phaseResult) *workload.LoadReport {
	rep := &workload.LoadReport{
		Connections:      conns,
		TrainConnections: trainConns,
		Scale:            scale,
		Seed:             seed,
		Seconds:          (idle.elapsed + training.elapsed).Seconds(),
		OpenLoopRate:     rate,
		Errors:           idle.errors + training.errors,
		BusyRejections:   idle.busy + training.busy,
	}

	// Per-kind classes pool both phases; per-phase read aggregates carry the
	// idle-vs-training comparison.
	elapsed := idle.elapsed + training.elapsed
	for _, kind := range []workload.OpKind{workload.OpPredict, workload.OpSelect, workload.OpSystem, workload.OpTrain} {
		samples := append(append([]time.Duration{}, idle.byKind[kind]...), training.byKind[kind]...)
		if len(samples) == 0 {
			continue
		}
		rep.Classes = append(rep.Classes, workload.SummarizeClass(string(kind), samples, elapsed))
		rep.Ops += int64(len(samples))
	}

	idleReads := workload.SummarizeClass("read-idle", readSamples(idle), idle.elapsed)
	trainReads := workload.SummarizeClass("read-training", readSamples(training), training.elapsed)
	rep.Classes = append(rep.Classes, idleReads, trainReads)
	rep.ReadP95IdleMicros = idleReads.P95Micros
	rep.ReadP95TrainingMicros = trainReads.P95Micros
	if idleReads.P95Micros > 0 {
		rep.TrainingReadP95Ratio = float64(trainReads.P95Micros) / float64(idleReads.P95Micros)
	}
	if s := rep.Seconds; s > 0 {
		rep.OpsPerSec = float64(rep.Ops) / s
	}
	return rep
}

func printReport(rep *workload.LoadReport) {
	fmt.Printf("\n%d ops in %.1fs (%.0f ops/sec), %d errors, %d busy rejections\n",
		rep.Ops, rep.Seconds, rep.OpsPerSec, rep.Errors, rep.BusyRejections)
	fmt.Printf("%-14s %10s %12s %10s %10s %10s\n", "class", "ops", "ops/sec", "p50", "p95", "p99")
	for _, c := range rep.Classes {
		fmt.Printf("%-14s %10d %12.1f %9dµ %9dµ %9dµ\n",
			c.Name, c.Ops, c.OpsPerSec, c.P50Micros, c.P95Micros, c.P99Micros)
	}
	fmt.Printf("read p95: idle %dµs, training %dµs — ratio %.2fx\n",
		rep.ReadP95IdleMicros, rep.ReadP95TrainingMicros, rep.TrainingReadP95Ratio)
}

func writeJSON(path string, rep *workload.LoadReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
