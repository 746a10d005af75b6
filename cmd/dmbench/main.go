// Command dmbench regenerates every experiment in DESIGN.md's index
// (E1–E10): the paper's Table 1, its running example, and the measurements
// behind each of its performance and design claims. EXPERIMENTS.md records
// representative output of this binary.
//
// Usage:
//
//	dmbench                 # run everything at the default scale
//	dmbench -exp e2,e8      # run a subset
//	dmbench -scale 10000    # more customers
//	dmbench -list           # list experiments
//
// Performance is measured by the repository's benchmark, `go run ./bench`.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment IDs (e1..e10) or 'all'")
	scale := flag.Int("scale", 2000, "base customer count for synthetic workloads")
	seed := flag.Int64("seed", 1, "workload generation seed")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	cfg := experiments.Config{Scale: *scale, Seed: *seed}
	var ids []string
	if strings.EqualFold(*exp, "all") {
		ids = experiments.IDs()
	} else {
		ids = strings.Split(*exp, ",")
	}

	start := time.Now()
	for _, id := range ids {
		r, err := experiments.Run(context.Background(), strings.TrimSpace(id), cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(r.String())
	}
	fmt.Printf("-- %d experiment(s), scale %d, total %s --\n",
		len(ids), *scale, time.Since(start).Round(time.Millisecond))
}
