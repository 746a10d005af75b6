// Bench is the repository's benchmark: seven named closed-loop workloads over
// a generated 50,000-customer warehouse, end-to-end metrics a caller would
// see, and — in the traced run — a ledger of what each layer costs when timed
// from outside. README.md in this directory explains every name it prints.
//
//	go run ./bench                                   # every workload, end-to-end metrics
//	go run ./bench -workload point_inproc -trace 1   # one workload, per-layer metrics
//	go run ./bench -repeat 10 -out report.json       # A/A run: medians, quartiles, spreads
//
// The last line of standard output is one JSON object (correct, attempted,
// failed, metrics); the exit code is 1 when any op failed or any output
// check did not hold.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

const (
	defaultScale   = 50000
	defaultSeconds = 10
	// setupRepeats set-ups per untraced run, so setup_s is a median.
	setupRepeats = 5
)

func main() {
	var (
		names   = flag.String("workload", "", "comma-separated workload names (default: all seven)")
		seed    = flag.Int64("seed", 1, "seed for the generated warehouse and every key sequence")
		scale   = flag.Int("scale", defaultScale, "customers in the generated warehouse")
		seconds = flag.Float64("seconds", defaultSeconds, "length of the timed phase of each workload")
		trace   = flag.Int("trace", 0, "1: the traced run (spans, layer ledger, per-layer metrics) in place of the end-to-end run")
		repeat  = flag.Int("repeat", 1, "run the selection this many times, workloads interleaved, seed+i on repeat i; print medians and spreads")
		out     = flag.String("out", "", "also write the machine-readable report to this file (spans to <file>.spans.jsonl)")
	)
	flag.Parse()
	defs := workloads
	if *names != "" {
		defs = nil
		for _, n := range strings.Split(*names, ",") {
			def := workloadByName(strings.TrimSpace(n))
			if def == nil {
				fatal(fmt.Errorf("bench: unknown workload %q", n))
			}
			defs = append(defs, def)
		}
	}
	if flag.NArg() > 0 || *scale < 10 || *seconds <= 0 || *repeat < 1 || *trace < 0 || *trace > 1 {
		fatal(fmt.Errorf("bench: bad arguments (want -scale >= 10, -seconds > 0, -repeat >= 1, -trace 0|1, no positional arguments)"))
	}
	cfg := config{Seed: *seed, Scale: *scale, Seconds: *seconds, Setups: setupRepeats}
	rep, err := runSuite(context.Background(), os.Stdout, defs, cfg, *trace == 1, *repeat)
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := rep.write(*out); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(rep.summary())
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if rep.failed() > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

// report is everything one invocation measured.
type report struct {
	Host    host      `json:"host"`
	Config  config    `json:"config"`
	Traced  bool      `json:"traced"`
	Repeat  int       `json:"repeat"`
	Results []*result `json:"results"`
	// Spread summarises each metric over the repeats, keyed
	// "workload.metric"; present when -repeat > 1.
	Spread map[string]spread `json:"spread,omitempty"`
}

// runSuite runs defs repeat times — workloads interleaved across repeats, not
// back to back — printing each result to w as it completes.
func runSuite(ctx context.Context, w io.Writer, defs []*workloadDef, cfg config, traced bool, repeat int) (*report, error) {
	rep := &report{Host: calibrate(), Config: cfg, Traced: traced, Repeat: repeat}
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d %s calib_sort_ms=%.2f calib_hash_ms=%.2f\n",
		rep.Host.NProc, rep.Host.GOMAXPROCS, rep.Host.GoVersion, rep.Host.CalibSortMs, rep.Host.CalibHashMs)
	fmt.Fprintf(w, "config: seed=%d scale=%d seconds=%g trace=%v repeat=%d; one process, closed loops, at most %d clients\n\n",
		cfg.Seed, cfg.Scale, cfg.Seconds, traced, repeat, maxClients(defs))
	for i := 0; i < repeat; i++ {
		c := cfg
		c.Seed += int64(i)
		for _, def := range defs {
			res, err := runWorkload(ctx, def, c, traced, rep.Host)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", def.name, err)
			}
			rep.Results = append(rep.Results, res)
			res.print(w)
		}
	}
	if repeat > 1 {
		rep.Spread = make(map[string]spread)
		samples := make(map[string][]float64)
		for _, res := range rep.Results {
			for name, m := range res.metrics() {
				samples[res.Workload+"."+name] = append(samples[res.Workload+"."+name], m.Value)
			}
		}
		keys := make([]string, 0, len(samples))
		for k, v := range samples {
			rep.Spread[k] = summarize(v)
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "spread over %d repeats (seeds %d..%d): median [q1, q3] (q3-q1)/median\n", repeat, cfg.Seed, cfg.Seed+int64(repeat)-1)
		for _, k := range keys {
			s := rep.Spread[k]
			fmt.Fprintf(w, "  %-40s %14.6g [%.6g, %.6g] %6.2f%%\n", k, s.Median, s.Q1, s.Q3, 100*s.Rel)
		}
		fmt.Fprintln(w)
	}
	return rep, nil
}

func maxClients(defs []*workloadDef) int {
	n := 0
	for _, d := range defs {
		clients := d.clients
		if d.trainer {
			clients++
		}
		if clients > n {
			n = clients
		}
	}
	return n
}

// metrics is what the run reports under the builder's contract: the
// end-to-end metrics of an untraced run, the per-layer metrics of a traced one.
func (r *result) metrics() map[string]metric {
	if r.Traced {
		return r.PerLayer
	}
	return r.EndToEnd
}

func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s [%d client(s), closed loop, seed %d]: attempted=%d failed=%d fail_share=%.6f\n",
		r.Workload, r.Clients, r.Seed, r.Attempted, r.Failed, r.failShare())
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
	line := func(d metricDef, m metric) {
		fmt.Fprintf(w, "  %-22s %16.6g %-7s n=%-7d %s\n", d.name, m.Value, m.Unit, m.N, m.Note)
	}
	for _, d := range endToEndMetrics {
		if m, ok := r.EndToEnd[d.name]; ok {
			if r.Traced {
				m.Note = strings.TrimSpace("quarter-length reference phase; " + m.Note)
			}
			line(d, m)
		}
	}
	fmt.Fprintf(w, "  op latency deciles (ms): %.4g\n", r.DecilesMs)
	for _, d := range perLayerMetrics {
		if m, ok := r.PerLayer[d.name]; ok {
			line(d, m)
		}
	}
	if r.Traced {
		fmt.Fprintf(w, "  spans=%d; self time per op from the op/statement spans (ms):%s\n", len(r.Spans), formatSelf(r.OpSelfMs))
		fmt.Fprintf(w, "  self time per ledger pass of the standalone layer calls (ms):%s\n", formatSelf(r.LedgerSelfMs))
		fmt.Fprintln(w, "  model_self_ms, compile_us, wire_tax_us, driver_tax_us are subtractions of separately timed calls, not nested spans")
	}
	fmt.Fprintln(w)
}

func formatSelf(self map[string]float64) string {
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	var b strings.Builder
	for _, l := range layers {
		fmt.Fprintf(&b, " [%s]=%.4g", l, self[l])
	}
	return b.String()
}

func (rep *report) failed() int {
	n := 0
	for _, r := range rep.Results {
		n += r.Failed
	}
	return n
}

// summary is the one-line result of the builder's contract. With one
// workload and one repeat the metric names are bare; otherwise they are
// "workload.metric" and, over repeats, the median.
func (rep *report) summary() map[string]any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	attempted := 0
	single := len(rep.Results) == 1
	for _, r := range rep.Results {
		attempted += r.Attempted
		for name, m := range r.metrics() {
			key := r.Workload + "." + name
			if single {
				key = name
			}
			v := m.Value
			if s, ok := rep.Spread[key]; ok {
				v = s.Median
			}
			metrics[key] = value{v, m.Unit}
		}
	}
	return map[string]any{"correct": rep.failed() == 0, "attempted": attempted, "failed": rep.failed(), "metrics": metrics}
}

// write stores the report as JSON and, for a traced run, every span as one
// JSON object per line beside it.
func (rep *report) write(path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if !rep.Traced {
		return nil
	}
	f, err := os.Create(path + ".spans.jsonl")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range rep.Results {
		for _, s := range r.Spans {
			if err := enc.Encode(s); err != nil {
				f.Close() //nolint:errcheck // the encode error is the one reported
				return err
			}
		}
	}
	return f.Close()
}
