// Command pairs measures the committed HEAD against another revision with the
// repository's benchmark (`go run ./bench`, BENCHMARK.json) and prints the
// tables EXPERIMENTS.md records:
//
//	go run ./tools/pairs -base <rev> [-n 10] [-seeds 1,7] [-workload train_nested] [-trace] [-dir <parent>]
//
// or `make pairs BASE=<rev> N=10 SEEDS=1,7 WORKLOAD=…`. It clones both
// revisions into a new directory under -dir (local clones, so the repository
// itself gains no worktree or ref), builds ./bench once per side, and per seed
// runs n pairs of runs at the benchmark's own run length, the base first in
// odd pairs and the head first in even ones, each with -out. For every workload and end-to-end metric it prints both
// sides' median and Q1–Q3, how many pairs the head won, the ratio of the
// medians, whether that ratio is inside the metric's bound and whether the
// head's median beats the base's by more than the base's Q1–Q3 distance;
// then the failed and attempted ops of each side. With -trace it also runs,
// after each seed's pairs, one traced run a side (`-trace 1`: the layer
// ledger) and prints both sides' per-layer metrics side by side, and at the
// end the `make heap-probe` line of each side (tools/heapprobe, the head's
// copy where the base has none). The directory it made is removed at the end,
// whether or not the runs succeeded. It needs git and go, and no network.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// spec is one end-to-end metric of BENCHMARK.json.
type spec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`
}

// run is what one side's report says about one workload: its end-to-end
// metrics, and the per-layer ones (with their units) of a traced run.
type run struct {
	attempted, failed int
	metrics           map[string]float64
	layers            map[string]layer
}

type layer struct {
	value float64
	unit  string
}

func main() {
	var (
		base     = flag.String("base", "", "the revision measured against (required)")
		n        = flag.Int("n", 10, "pairs per seed")
		seeds    = flag.String("seeds", "1,7", "comma-separated seeds, one set of pairs each")
		workload = flag.String("workload", "", "comma-separated workloads (default: all)")
		dir      = flag.String("dir", "", "where to make the scratch directory (default: the system temp directory)")
		trace    = flag.Bool("trace", false, "also print a traced pair's per-layer metrics per seed and each side's heap probe")
	)
	flag.Parse()
	seedList, err := parseSeeds(*seeds)
	if err != nil || *base == "" || *n < 1 || flag.NArg() > 0 {
		err = fmt.Errorf("pairs: want -base <rev>, -n >= 1 and seeds like 1,7 (%v)", err)
	} else {
		err = measure(*base, *n, seedList, *workload, *dir, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

// measure builds both sides in a new directory under parent, runs the pairs
// and prints the tables, and with trace the traced pairs and heap probes; the
// directory goes when it returns.
func measure(base string, n int, seeds []int, workload, parent string, trace bool) error {
	dir, err := os.MkdirTemp(parent, "pairs-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	repo, err := git("", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	specs, err := readSpecs(filepath.Join(repo, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	sides := [2]string{"base", "head"}
	var bins, shas [2]string
	for s, rev := range [2]string{base, "HEAD"} {
		if shas[s], err = git(repo, "rev-parse", "--verify", rev+"^{commit}"); err != nil {
			return err
		}
		if bins[s], err = build(repo, shas[s], filepath.Join(dir, sides[s])); err != nil {
			return err
		}
	}
	// bench runs side s's benchmark once, tagged tag, and returns its report
	// by workload.
	bench := func(s int, tag string, extra ...string) (map[string]run, error) {
		out := filepath.Join(dir, sides[s]+"-"+tag+".json")
		args := append([]string{"-workload", workload, "-out", out}, extra...)
		fmt.Fprintf(os.Stderr, "pairs: %s: %s\n", tag, sides[s])
		cmd := exec.Command(bins[s], args...)
		cmd.Stderr = os.Stderr
		// Exit status 1 means some op failed: the report counts it.
		if err := cmd.Run(); err != nil && cmd.ProcessState.ExitCode() != 1 {
			return nil, fmt.Errorf("pairs: %s %v: %w", bins[s], args, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			return nil, err
		}
		byWorkload, err := parseReport(data)
		if err != nil {
			return nil, fmt.Errorf("pairs: %s: %w", out, err)
		}
		return byWorkload, nil
	}
	for _, seed := range seeds {
		runs := [2]map[string][]run{{}, {}}
		for i := 0; i < n; i++ {
			for _, s := range [][2]int{{0, 1}, {1, 0}}[i%2] {
				byWorkload, err := bench(s, fmt.Sprintf("seed%d-pair%dof%d", seed, i+1, n), "-seed", strconv.Itoa(seed))
				if err != nil {
					return err
				}
				for w, r := range byWorkload {
					runs[s][w] = append(runs[s][w], r)
				}
			}
		}
		var traced [2]map[string]run
		for s := 0; trace && s < 2; s++ {
			if traced[s], err = bench(s, fmt.Sprintf("seed%d-traced", seed), "-seed", strconv.Itoa(seed), "-trace", "1"); err != nil {
				return err
			}
		}
		for _, w := range sortedKeys(runs[1]) {
			fmt.Printf("`%s`, seed %d, %d alternating pairs, base %.7s vs head %.7s:\n\n", w, seed, n, shas[0], shas[1])
			writeTable(os.Stdout, specs, runs[0][w], runs[1][w])
			fmt.Println()
			if trace {
				fmt.Printf("`%s`, seed %d, one traced run a side (layer ledger), base %.7s vs head %.7s:\n\n", w, seed, shas[0], shas[1])
				writeLedger(os.Stdout, traced[0][w], traced[1][w])
				fmt.Println()
			}
		}
	}
	for s := 0; trace && s < 2; s++ {
		line, err := heapProbe(filepath.Join(dir, sides[s]), filepath.Join(dir, sides[1]))
		if err != nil {
			return err
		}
		fmt.Printf("%s %.7s: %s\n", sides[s], shas[s], line)
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// heapProbe runs tools/heapprobe in the clone at dir — copying the one in the
// head's clone into it when the revision has none — and returns its line.
func heapProbe(dir, head string) (string, error) {
	probe := filepath.Join(dir, "tools", "heapprobe")
	if _, err := os.Stat(probe); os.IsNotExist(err) {
		src, err := os.ReadFile(filepath.Join(head, "tools", "heapprobe", "main.go"))
		if err != nil {
			return "", err
		}
		if err := os.MkdirAll(probe, 0o755); err != nil {
			return "", err
		}
		if err := os.WriteFile(filepath.Join(probe, "main.go"), src, 0o644); err != nil {
			return "", err
		}
	}
	fmt.Fprintf(os.Stderr, "pairs: heap probe in %s\n", dir)
	cmd := exec.Command("go", "run", "./tools/heapprobe")
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("pairs: heap probe in %s: %w", dir, err)
	}
	return strings.TrimSpace(string(out)), nil
}

func parseSeeds(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// git runs git in dir (the current directory if empty) and returns its
// trimmed standard output.
func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("pairs: git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// build checks sha out into dir as a local clone of repo and builds its
// ./bench there, returning the binary's path.
func build(repo, sha, dir string) (string, error) {
	if _, err := git("", "clone", "--quiet", "--shared", "--no-checkout", repo, dir); err != nil {
		return "", err
	}
	if _, err := git(dir, "checkout", "--quiet", "--detach", sha); err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "bench.bin")
	cmd := exec.Command("go", "build", "-o", bin, "./bench")
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("pairs: building %s: %w", dir, err)
	}
	return bin, nil
}

// readSpecs reads the end-to-end metrics of a BENCHMARK.json.
func readSpecs(path string) ([]spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []spec `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("pairs: %s: %w", path, err)
	}
	return b.EndToEnd, nil
}

// parseReport reads a `go run ./bench -out` report, keyed by workload.
func parseReport(data []byte) (map[string]run, error) {
	var rep struct {
		Results []struct {
			Workload  string `json:"workload"`
			Attempted int    `json:"attempted"`
			Failed    int    `json:"failed"`
			EndToEnd  map[string]struct {
				Value float64 `json:"value"`
			} `json:"end_to_end"`
			PerLayer map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"per_layer"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	out := make(map[string]run)
	for _, r := range rep.Results {
		m := make(map[string]float64, len(r.EndToEnd))
		for name, v := range r.EndToEnd {
			m[name] = v.Value
		}
		l := make(map[string]layer, len(r.PerLayer))
		for name, v := range r.PerLayer {
			l[name] = layer{v.Value, v.Unit}
		}
		out[r.Workload] = run{r.Attempted, r.Failed, m, l}
	}
	return out, nil
}

// writeLedger prints one workload's traced pair: a row per per-layer metric,
// the base's in name order and then those only the head reports, with both
// values and their ratio ("–" where a side lacks it or the base reads 0).
func writeLedger(w io.Writer, base, head run) {
	fmt.Fprintln(w, "| per-layer metric | unit | base | head | head / base |")
	fmt.Fprintln(w, "|---|---|---:|---:|---:|")
	names := sortedKeys(base.layers)
	for _, name := range sortedKeys(head.layers) {
		if _, ok := base.layers[name]; !ok {
			names = append(names, name)
		}
	}
	for _, name := range names {
		b, inBase := base.layers[name]
		h, inHead := head.layers[name]
		cell := func(l layer, ok bool) string {
			if !ok {
				return "–"
			}
			return num(l.value)
		}
		ratio := "–"
		if inBase && inHead && b.value != 0 {
			ratio = strconv.FormatFloat(h.value/b.value, 'f', 3, 64)
		}
		unit := h.unit
		if !inHead {
			unit = b.unit
		}
		fmt.Fprintf(w, "| `%s` | %s | %s | %s | %s |\n", name, unit, cell(b, inBase), cell(h, inHead), ratio)
	}
}

// quartiles returns the median and the exclusive quartiles (the (n+1)-rank
// rule of Python's statistics.quantiles, clamped to the sample's range) —
// the rule `go run ./bench -repeat` summarises with.
func quartiles(values []float64) (q1, med, q3 float64) {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	at := func(q float64) float64 {
		pos := q*float64(len(xs)+1) - 1
		switch {
		case pos <= 0:
			return xs[0]
		case pos >= float64(len(xs)-1):
			return xs[len(xs)-1]
		}
		lo := int(pos)
		return xs[lo] + (xs[lo+1]-xs[lo])*(pos-float64(lo))
	}
	return at(0.25), at(0.5), at(0.75)
}

// writeTable prints one workload's table: a row per metric both sides
// report, then the ops each side attempted and failed. base[i] and head[i]
// are pair i.
func writeTable(w io.Writer, specs []spec, base, head []run) {
	fmt.Fprintln(w, "| metric | base median | base Q1–Q3 | head median | head Q1–Q3 | head wins | head / base | within bound | beyond base Q1–Q3 |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|---:|---:|---|---|")
	for _, sp := range specs {
		bv, hv := values(base, sp.Name), values(head, sp.Name)
		if len(bv) == 0 || len(bv) != len(hv) {
			continue
		}
		wins := 0
		for i := range bv {
			if better(sp, hv[i], bv[i]) {
				wins++
			}
		}
		b1, bm, b3 := quartiles(bv)
		h1, hm, h3 := quartiles(hv)
		ratio := hm / bm
		worst := 1 + sp.Bound
		if sp.Better == "higher" {
			worst = 1 - sp.Bound
		}
		fmt.Fprintf(w, "| `%s` | %s | %s–%s | %s | %s–%s | %d/%d | %.3f | %s (%.2f) | %s |\n", sp.Name,
			num(bm), num(b1), num(b3), num(hm), num(h1), num(h3), wins, len(bv), ratio,
			yes(!better(sp, worst*bm, hm)), sp.Bound, yes(better(sp, hm, bm) && math.Abs(hm-bm) > b3-b1))
	}
	fmt.Fprintf(w, "\nfailed ops: base %d of %d, head %d of %d\n", sum(base, true), sum(base, false), sum(head, true), sum(head, false))
}

// better reports whether a is better than b under the metric's direction.
func better(sp spec, a, b float64) bool {
	if sp.Better == "higher" {
		return a > b
	}
	return a < b
}

func values(runs []run, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.metrics[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

func sum(runs []run, failed bool) int {
	total := 0
	for _, r := range runs {
		if failed {
			total += r.failed
		} else {
			total += r.attempted
		}
	}
	return total
}

func yes(ok bool) string {
	if ok {
		return "yes"
	}
	return "no"
}

// num prints a value with four significant digits, whole numbers from 10 000.
func num(v float64) string {
	if math.Abs(v) >= 10000 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}
