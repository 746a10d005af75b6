package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs"
)

// metricDef names one reported metric. BENCHMARK.json carries the same names
// and units (bench_test.go holds the two together); README.md says how each
// is measured and which end-to-end metric each layer metric should move.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"p50_ms", "ms"}, {"p95_ms", "ms"}, {"rows_per_s", "rows/s"}, {"ops_per_s", "ops/s"}, {"setup_s", "s"},
}

var perLayerMetrics = []metricDef{
	{"parse_us_per_stmt", "us"}, {"normalize_us", "us"}, {"compile_us", "us"}, {"plan_cache_hit_ratio", "ratio"},
	{"scan_rows_per_s", "rows/s"}, {"lookup_ns", "ns"},
	{"engine_ms", "ms"}, {"batches", "1/op"}, {"morsels", "1/op"}, {"parallel_scans", "1/op"},
	{"shape_ms", "ms"}, {"shape_rows_per_s", "rows/s"},
	{"model_self_ms", "ms"}, {"stage_parse_us", "us"}, {"stage_bind_us", "us"}, {"stage_source_us", "us"},
	{"stage_train_us", "us"}, {"stage_scan_us", "us"}, {"unaccounted_share", "ratio"},
	{"encode_mb_per_s", "MB/s"}, {"decode_mb_per_s", "MB/s"}, {"bytes_per_row", "B/row"},
	{"wire_tax_us", "us"}, {"outside_server_us", "us"}, {"driver_tax_us", "us"}, {"obs_overhead_share", "ratio"},
	{"alloc_bytes_per_op", "B/op"}, {"allocs_per_op", "1/op"}, {"gc_cycles", "count"}, {"gc_pause_ms", "ms"},
	{"trains_completed", "count"}, {"train_p50_ms", "ms"},
	{"trace_overhead_share", "ratio"}, {"calib_sort_ms", "ms"}, {"calib_hash_ms", "ms"},
}

var perLayerUnit = func() map[string]string {
	units := make(map[string]string, len(perLayerMetrics))
	for _, d := range perLayerMetrics {
		units[d.name] = d.unit
	}
	return units
}()

// metric is one reported value with the sample count behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Clients   int               `json:"clients"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
	// OpSelfMs is the traced clients' self time per layer and op, from the
	// op and statement spans; LedgerSelfMs is the standalone layer calls'
	// self time per layer and ledger pass.
	OpSelfMs     map[string]float64 `json:"op_self_ms,omitempty"`
	LedgerSelfMs map[string]float64 `json:"ledger_self_ms,omitempty"`
	Spans        []span             `json:"-"`
	// DecilesMs are the op latency deciles (min, 10 %, …, max) of the timed
	// phase: the shape of the distribution behind p50_ms and p95_ms.
	DecilesMs []float64 `json:"deciles_ms"`
}

func (r *result) failShare() float64 { return float64(r.Failed) / float64(r.Attempted) }

func (r *result) absorb(ph *phase) {
	r.Attempted += ph.ops + len(ph.plainLat)
	r.Failed += ph.failed
	for _, e := range ph.errs {
		if len(r.Errors) < 5 {
			r.Errors = append(r.Errors, e)
		}
	}
}

// host is recorded in every report so numbers from different hosts, or the
// same host on a different day, can be told apart.
type host struct {
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	CalibSortMs float64 `json:"calib_sort_ms"`
	CalibHashMs float64 `json:"calib_hash_ms"`
}

// calibrate runs the two fixed kernels: sort 1M int64, FNV-1a over 64 MB.
func calibrate() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	rng := rand.New(rand.NewSource(1))
	xs := make([]int64, 1<<20)
	for i := range xs {
		xs[i] = rng.Int63()
	}
	start := time.Now()
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	h.CalibSortMs = ms(time.Since(start))
	buf := make([]byte, 64<<20)
	rng.Read(buf) //nolint:errcheck // math/rand's Read never fails
	start = time.Now()
	f := fnv.New64a()
	f.Write(buf) //nolint:errcheck // hash.Hash's Write never fails
	h.CalibHashMs = ms(time.Since(start))
	return h
}

// runWorkload measures one workload. Untraced, it sets up cfg.Setups times
// and times one closed-loop phase of cfg.Seconds with no spans: the
// end-to-end metrics. Traced, it sets up once and spends a quarter of
// cfg.Seconds on an untraced reference phase, half on a phase that puts spans
// around every other op and its statements (a quarter's worth of traced ops),
// and a quarter on the layer ledger: the per-layer metrics.
func runWorkload(ctx context.Context, def *workloadDef, cfg config, traced bool, h host) (*result, error) {
	res := &result{Workload: def.name, Clients: def.clients, Seed: cfg.Seed, Traced: traced,
		EndToEnd: make(map[string]metric), PerLayer: make(map[string]metric)}
	setups, phaseLen := cfg.Setups, time.Duration(cfg.Seconds*float64(time.Second))
	if traced {
		setups, phaseLen = 1, phaseLen/4
	}
	var e *env
	var setupS []float64
	for i := 0; i < setups; i++ {
		if e != nil {
			e.close()
		}
		var d time.Duration
		var err error
		if e, d, err = newEnv(ctx, def, cfg, false); err != nil {
			return nil, err
		}
		setupS = append(setupS, d.Seconds())
	}
	defer e.close()
	stmts := def.stmts(e)

	warm, err := runPhase(ctx, def, e, stmts, phaseLen/20, nil, 0)
	if err != nil {
		return nil, err
	}
	res.absorb(warm)
	runtime.GC() // the discarded set-ups and the warm-up's garbage are not the timed phase's
	ph, err := runPhase(ctx, def, e, stmts, phaseLen, nil, warm.ops)
	if err != nil {
		return nil, err
	}
	res.absorb(ph)

	for i := 0; i <= 10; i++ {
		res.DecilesMs = append(res.DecilesMs, quantile(ph.lat, float64(i)/10))
	}
	q := tailQuantile(ph.ops)
	res.EndToEnd["p50_ms"] = metric{Value: quantile(ph.lat, 0.5), Unit: "ms", N: ph.ops}
	res.EndToEnd["p95_ms"] = metric{Value: quantile(ph.lat, q), Unit: "ms", N: ph.ops,
		Note: fmt.Sprintf("quantile %.3f: the highest up to 0.95 with >= %d samples beyond it", q, minBeyond)}
	res.EndToEnd["rows_per_s"] = metric{Value: float64(ph.rows) / ph.seconds, Unit: "rows/s", N: ph.ops,
		Note: fmt.Sprintf("%d input rows in %.3f s", ph.rows, ph.seconds)}
	res.EndToEnd["ops_per_s"] = metric{Value: float64(ph.ops) / ph.seconds, Unit: "ops/s", N: ph.ops,
		Note: fmt.Sprintf("%d ops in %.3f s on %d client(s)", ph.ops, ph.seconds, def.clients)}
	res.EndToEnd["setup_s"] = metric{Value: median(setupS), Unit: "s", N: len(setupS)}

	ops := float64(ph.ops)
	set := func(name string, v float64, n int) {
		res.PerLayer[name] = metric{Value: v, Unit: perLayerUnit[name], N: n}
	}
	hits, misses := ph.counters[obs.MetricPlanCacheHits], ph.counters[obs.MetricPlanCacheMisses]
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	set("plan_cache_hit_ratio", ratio, int(hits+misses))
	set("batches", float64(ph.counters[obs.MetricSQLBatchesTotal])/ops, ph.ops)
	set("morsels", float64(ph.counters[obs.MetricSQLMorselsTotal])/ops, ph.ops)
	set("parallel_scans", float64(ph.counters[obs.MetricSQLParallelScansTotal])/ops, ph.ops)
	set("alloc_bytes_per_op", float64(ph.mem.allocBytes)/ops, ph.ops)
	set("allocs_per_op", float64(ph.mem.allocs)/ops, ph.ops)
	set("gc_cycles", float64(ph.mem.gcCycles), ph.ops)
	set("gc_pause_ms", ms(ph.mem.gcPause), int(ph.mem.gcCycles))
	set("trains_completed", float64(len(ph.trains)), len(ph.trains))
	set("train_p50_ms", median(ph.trains), len(ph.trains))
	set("calib_sort_ms", h.CalibSortMs, 1)
	set("calib_hash_ms", h.CalibHashMs, 1)
	if !traced {
		return res, nil
	}

	sink := newTraceSink(e, def.name)
	tp, err := runPhase(ctx, def, e, stmts, 2*phaseLen, sink, res.Attempted)
	if err != nil {
		return nil, err
	}
	res.absorb(tp)
	led, err := runLedger(ctx, def, e, stmts, sink, phaseLen, res.Attempted)
	if err != nil {
		return nil, err
	}
	med := func(xs []float64) float64 { return median(append([]float64(nil), xs...)) }
	set("parse_us_per_stmt", med(led.parseUs), led.passes)
	set("normalize_us", med(led.normalizeUs), led.passes)
	set("scan_rows_per_s", med(led.scanRowsPerS), led.passes)
	set("lookup_ns", med(led.lookupNs), len(led.lookupNs)*lookupsPerPass)
	set("engine_ms", med(led.engineMs), led.passes)
	shapeMs := med(led.shapeMs)
	set("shape_ms", shapeMs, led.passes)
	shapeRate := 0.0
	if shapeMs > 0 {
		shapeRate = float64(led.shapeRows) / (shapeMs / 1e3)
	}
	set("shape_rows_per_s", shapeRate, led.passes)
	set("encode_mb_per_s", med(led.encodeMBs), len(led.encodeMBs))
	set("decode_mb_per_s", med(led.decodeMBs), len(led.decodeMBs))
	set("bytes_per_row", led.bytesPerRow, len(led.encodeMBs))

	// Subtractions. A statement's own wall time is what the traced clients
	// observed — or, on the wire workloads, the same statement sent
	// in-process from the ledger — and the layers below it were timed
	// standalone, so each share is one measurement minus another.
	var modelSelf, wireTax, adhoc, prepared float64
	for i := range stmts {
		name := stmts[i].name
		wallUs := med(sink.stmtUs[name])
		if def.wire {
			wireTax += (wallUs - med(led.inprocUs[name])) / float64(len(stmts))
			wallUs = med(led.inprocUs[name])
		}
		modelSelf += wallUs/1e3 - med(led.standaloneMs[name])
		switch name {
		case "adhoc_select":
			adhoc = wallUs
		case "prepared_select":
			prepared = wallUs
		}
	}
	set("model_self_ms", modelSelf, tp.ops)
	compile := 0.0
	if adhoc > 0 && prepared > 0 {
		compile = adhoc - prepared
	}
	set("compile_us", compile, len(sink.stmtUs["adhoc_select"]))
	set("wire_tax_us", wireTax, tp.ops)
	set("outside_server_us", med(sink.outsideUs), len(sink.outsideUs))
	driverTax := 0.0
	if len(led.driverOpUs) > 0 {
		driverTax = med(led.driverOpUs) - quantile(tp.lat, 0.5)*1e3
	}
	set("driver_tax_us", driverTax, len(led.driverOpUs))

	var staged time.Duration
	for i, d := range sink.stages {
		set("stage_"+obs.Stage(i).String()+"_us", us(d)/float64(tp.ops), tp.ops)
		staged += d
	}
	unaccounted := 0.0
	if sink.stageWall > 0 {
		unaccounted = 1 - float64(staged)/float64(sink.stageWall)
	}
	set("unaccounted_share", unaccounted, tp.ops)
	set("trace_overhead_share", quantile(tp.lat, 0.5)/quantile(tp.plainLat, 0.5)-1, tp.ops)

	overhead, n := 0.0, 0
	if def.obsTwin {
		if overhead, n, err = obsOverhead(ctx, def, e, stmts, 2*phaseLen, res); err != nil {
			return nil, err
		}
	}
	set("obs_overhead_share", overhead, n)

	res.Spans = sink.rec.spans
	res.OpSelfMs = perCall(sink.rec.selfTimeByLayer("op"), tp.ops)
	res.LedgerSelfMs = perCall(sink.rec.selfTimeByLayer("ledger"), led.passes)
	return res, nil
}

func perCall(self map[string]time.Duration, calls int) map[string]float64 {
	out := make(map[string]float64, len(self))
	for layer, d := range self {
		out[layer] = ms(d) / float64(calls)
	}
	return out
}

// obsOverhead builds a second system WithObsRegistry(nil) and alternates ops
// between it and e for d, so both sides see the same stretch of time and the
// same heap; it returns how much slower the instrumented p50 is, and the ops
// per side.
func obsOverhead(ctx context.Context, def *workloadDef, e *env, stmts []statement, d time.Duration, res *result) (float64, int, error) {
	bare, _, err := newEnv(ctx, def, e.cfg, true)
	if err != nil {
		return 0, 0, err
	}
	defer bare.close()
	bareStmts := def.stmts(bare)
	with, without := newClient(def, e, e.clients[0], len(stmts), res.Attempted), newClient(def, bare, bare.clients[0], len(stmts), res.Attempted)
	deadline := time.Now().Add(d)
	for n := 0; n < 2 || time.Now().Before(deadline); n++ {
		with.runOp(ctx, e, stmts, res.Attempted+2*n, nil, false)
		without.runOp(ctx, bare, bareStmts, res.Attempted+2*n+1, nil, false)
	}
	for _, cl := range []*client{with, without} {
		res.Attempted += len(cl.lat)
		res.Failed += cl.failed
		res.Errors = append(res.Errors, cl.errs...)
	}
	// The first op on each side warms the bare system up.
	return median(with.lat[1:])/median(without.lat[1:]) - 1, len(with.lat) - 1, nil
}
