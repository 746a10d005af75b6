// Command pairs measures the committed HEAD against another revision with the
// repository's benchmark (`go run ./bench`, BENCHMARK.json) and prints the
// tables EXPERIMENTS.md records:
//
//	go run ./tools/pairs -base <rev> [-n 10] [-seeds 1,7] [-workload train_nested] [-dir <parent>]
//
// or `make pairs BASE=<rev> N=10 SEEDS=1,7 WORKLOAD=…`. It clones both
// revisions into a new directory under -dir (local clones, so the repository
// itself gains no worktree or ref), builds ./bench once per side, and per seed
// runs n pairs of runs at the benchmark's own run length, the base first in
// odd pairs and the head first in even ones, each with -out. For every workload and end-to-end metric it prints both
// sides' median and Q1–Q3, how many pairs the head won, the ratio of the
// medians, whether that ratio is inside the metric's bound and whether the
// head's median beats the base's by more than the base's Q1–Q3 distance;
// then the failed and attempted ops of each side. The directory it made is
// removed at the end, whether or not the runs succeeded. It needs git and go,
// and no network.
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

// run is what one side's report says about one workload.
type run struct {
	attempted, failed int
	metrics           map[string]float64
}

func main() {
	var (
		base     = flag.String("base", "", "the revision measured against (required)")
		n        = flag.Int("n", 10, "pairs per seed")
		seeds    = flag.String("seeds", "1,7", "comma-separated seeds, one set of pairs each")
		workload = flag.String("workload", "", "comma-separated workloads (default: all)")
		dir      = flag.String("dir", "", "where to make the scratch directory (default: the system temp directory)")
	)
	flag.Parse()
	seedList, err := parseSeeds(*seeds)
	if err != nil || *base == "" || *n < 1 || flag.NArg() > 0 {
		err = fmt.Errorf("pairs: want -base <rev>, -n >= 1 and seeds like 1,7 (%v)", err)
	} else {
		err = measure(*base, *n, seedList, *workload, *dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

// measure builds both sides in a new directory under parent, runs the pairs
// and prints the tables; the directory goes when it returns.
func measure(base string, n int, seeds []int, workload, parent string) error {
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
	for _, seed := range seeds {
		runs := [2]map[string][]run{{}, {}}
		for i := 0; i < n; i++ {
			for _, s := range [][2]int{{0, 1}, {1, 0}}[i%2] {
				out := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%d.json", sides[s], seed, i+1))
				args := []string{"-seed", strconv.Itoa(seed), "-workload", workload, "-out", out}
				fmt.Fprintf(os.Stderr, "pairs: seed %d pair %d/%d: %s\n", seed, i+1, n, sides[s])
				cmd := exec.Command(bins[s], args...)
				cmd.Stderr = os.Stderr
				// Exit status 1 means some op failed: the report counts it.
				if err := cmd.Run(); err != nil && cmd.ProcessState.ExitCode() != 1 {
					return fmt.Errorf("pairs: %s %v: %w", bins[s], args, err)
				}
				data, err := os.ReadFile(out)
				if err != nil {
					return err
				}
				byWorkload, err := parseReport(data)
				if err != nil {
					return fmt.Errorf("pairs: %s: %w", out, err)
				}
				for w, r := range byWorkload {
					runs[s][w] = append(runs[s][w], r)
				}
			}
		}
		var names []string
		for w := range runs[1] {
			names = append(names, w)
		}
		sort.Strings(names)
		for _, w := range names {
			fmt.Printf("`%s`, seed %d, %d alternating pairs, base %.7s vs head %.7s:\n\n", w, seed, n, shas[0], shas[1])
			writeTable(os.Stdout, specs, runs[0][w], runs[1][w])
			fmt.Println()
		}
	}
	return nil
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
		out[r.Workload] = run{r.Attempted, r.Failed, m}
	}
	return out, nil
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
