GO ?= go

.PHONY: build test vet race fuzz-smoke bench bench-parallel bench-smoke heap-probe pairs lint vulncheck check loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Code-line counts the simplicity PRs quote: non-test Go with blank and
# //-comment lines dropped, for the packages that hold the executors and the
# model path (core + provider + algo share one line budget), the training
# source path (shape + storage), the SQL engine and the DMX parser and checker
# that sit on its expression tree, the worker pool, the observability substrate
# and the schema rowsets that surface it, the wire (server + client), and
# everything outside bench/.
loc:
	@count() { cat "$$@" | grep -v '^[[:space:]]*$$' | grep -vc '^[[:space:]]*//'; }; \
	src() { find "$$@" -name '*.go' ! -name '*_test.go' ! -path './bench/*'; }; \
	printf '%-38s %6d\n' internal/provider/predict.go $$(count internal/provider/predict.go) \
		internal/provider $$(count $$(src internal/provider)) \
		internal/core $$(count $$(src internal/core)) \
		internal/algo $$(count $$(src internal/algo)) \
		'core + provider + algo' $$(count $$(src internal/core internal/provider internal/algo)) \
		internal/shape $$(count $$(src internal/shape)) \
		internal/storage $$(count $$(src internal/storage)) \
		internal/sqlengine $$(count $$(src internal/sqlengine)) \
		'internal/dmx + internal/dmx/sem' $$(count $$(src internal/dmx)) \
		internal/par $$(count $$(src internal/par)) \
		internal/obs $$(count $$(src internal/obs)) \
		internal/schemarowset $$(count $$(src internal/schemarowset)) \
		'internal/dmserver + internal/dmclient' $$(count $$(src internal/dmserver internal/dmclient)) \
		'all outside bench/' $$(count $$(src .))

vet:
	$(GO) vet ./...

# Full suite under the race detector, including the concurrent
# predict-vs-retrain stress test in internal/provider.
race:
	$(GO) test -race ./...

# Every Fuzz* target in the module, ten seconds each, so the fuzzers run past
# their seed corpus somewhere other than a developer's laptop. Minimizing an
# input that merely adds coverage is capped at a second: the default minute
# would eat the whole budget.
fuzz-smoke:
	@set -e; for dir in $$(grep -rl --include='*_test.go' '^func Fuzz' . | xargs -n1 dirname | sort -u); do \
		for target in $$(grep -ho '^func Fuzz[A-Za-z0-9_]*' $$dir/*_test.go | cut -c6-); do \
			echo "fuzz $$dir $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 10s -fuzzminimizetime 1s $$dir; \
		done; \
	done

# The repository's benchmark (bench/README.md, BENCHMARK.json): seven named
# workloads at 50k customers, end-to-end metrics, every output checked. A
# performance claim compares two runs of this made in the same sitting.
bench:
	$(GO) run ./bench

# One pass of the four case-path benchmarks (a whole INSERT INTO … SHAPE,
# then tokenize and Decision_Trees training alone on the nested caseset, and
# Decision_Trees training alone on the 50k flat caseset), of case assembly
# alone (BenchmarkE7_CaseAssembly: the paper's SHAPE at 1,000 customers,
# children read through the key index, and train_nested's dt_nested_tenth
# SHAPE at 50,000, whose filtered child the engine drains in partitions and
# groups unprojected), of
# the two prediction-join benchmarks (a whole-table NATURAL PREDICTION JOIN
# and a singleton one) at 1,000 customers, of predict_batch's two whole-table
# joins at 50,000 (BenchmarkPredictBatch: the source streams in 4096-row
# partitions), of the SQL engine's four sql_analytic statements over
# the 50k-customer warehouse (filter + ORDER BY, wide filter, GROUP BY, and
# the partitioned JOIN … GROUP BY over 156k sales), of a RELATE's index
# probes (Table.Groups, 50k LONG keys over 156k rows, reading the table's
# cached key index, which an untimed first call builds), of EQUAL_AREAS cuts
# (50k values, 5 buckets) and of the rowset codec (encode and decode of a
# 50k-row result, repeated and distinct TEXT), with allocations, so they keep
# compiling and running and the log shows what a training case, a
# prediction, a statement, a probe and a decoded row allocate. The callers of
# par.Forks.Run — the whole INSERT INTO and the tokenize alone (case ranges
# encoded, listed and merged), both Decision_Trees trainings, the filtered
# APPEND child's partitions, the prediction joins' partitions, and the
# statements' partitions —
# run at -cpu 1,2: GOMAXPROCS changes
# inside one process, so a bound sized once at package init rather than per
# Run call would show there (at 1 nothing forks). So does BenchmarkGroups,
# whose probes run on the caller's goroutine at either count.
# Numbers are recorded in EXPERIMENTS.md; end to end, the partitioned
# PREDICTION JOIN and SQL join paths are measured by `go run ./bench`
# (predict_batch, sql_analytic).
bench-parallel:
	$(GO) test -run '^$$' -bench 'BenchmarkE4_PredictionJoinNatural|BenchmarkE4_PredictionSingleCase' -benchtime=1x -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkInsertNested|BenchmarkTokenizeNested|BenchmarkTrainDecisionTrees(Nested|Flat)' -benchtime=1x -benchmem -cpu 1,2 .
	$(GO) test -run '^$$' -bench 'BenchmarkE7_CaseAssembly' -benchtime=1x -benchmem -cpu 1,2 .
	$(GO) test -run '^$$' -bench 'BenchmarkPredictBatch' -benchtime=1x -benchmem -cpu 1,2 .
	$(GO) test -run '^$$' -bench 'BenchmarkWarehouseSQL' -benchtime=1x -benchmem -cpu 1,2 ./internal/sqlengine
	$(GO) test -run '^$$' -bench 'BenchmarkGroups' -benchtime=1x -benchmem -cpu 1,2 ./internal/storage
	$(GO) test -run '^$$' -bench 'BenchmarkEqualAreas' -benchtime=1x -benchmem ./internal/algo/discretize
	$(GO) test -run '^$$' -bench 'BenchmarkCodec' -benchtime=1x -benchmem ./internal/rowset

# A change measured against a base revision (tools/pairs): both revisions
# checked out as local clones in a scratch directory, ./bench built once per
# side, N alternating pairs of runs per seed, and the EXPERIMENTS.md tables —
# medians, Q1–Q3, wins, ratios, the bound check and failed ops — printed.
# WORKLOAD empty runs all seven. The committed HEAD is measured; uncommitted
# changes are not.
BASE ?=
N ?= 10
SEEDS ?= 1,7
WORKLOAD ?=
pairs:
	$(GO) run ./tools/pairs -base '$(BASE)' -n $(N) -seeds '$(SEEDS)' -workload '$(WORKLOAD)'

# Instrumentation-overhead guard: fails when enabling the obs registry slows
# the batch PREDICTION JOIN or a prepared point SELECT by more than 10% over
# WithObsRegistry(nil), comparing the medians of alternating
# instrumented/bare pairs. The instrumented side runs with the flight
# recorder considering every statement and the metrics-history ticker
# snapshotting, so the 10% budget prices in the whole recorder+history
# pipeline.
bench-smoke:
	BENCH_SMOKE=1 $(GO) test -run TestObsOverheadSmoke -v .

# What the stored 50k-customer warehouse costs the collector: live heap
# objects, scannable heap bytes and one forced GC, then GC cycles and GC CPU
# share over a fixed number of predict_batch and sql_analytic statements run
# in-process (tools/heapprobe). Prints the EXPERIMENTS.md standing line;
# fails only on an error, never on a number.
heap-probe:
	$(GO) run ./tools/heapprobe

# Project-specific static analysis (tools/dmlint) plus formatting and vet.
# dmlint type-checks the module with the stdlib toolchain and enforces the
# invariants documented in DESIGN.md § Static analysis.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:" $$unformatted; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) run ./tools/dmlint ./...

# Known-vulnerability scan. Gated on the binary being present: the scan
# needs network access for the vuln DB, so offline/sandboxed builds skip it
# rather than fail.
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vulncheck: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

check: lint vulncheck race bench-parallel
