GO ?= go

.PHONY: build test vet race fuzz-smoke bench bench-parallel bench-smoke loadsmoke lint vulncheck check loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Code-line counts the simplicity PRs quote: non-test Go with blank and
# //-comment lines dropped, for the packages that hold the executors and the
# model path (core + provider + algo share one line budget), the training
# source path (shape + storage), the worker pool, and everything outside
# bench/.
loc:
	@count() { cat "$$@" | grep -v '^[[:space:]]*$$' | grep -vc '^[[:space:]]*//'; }; \
	src() { find "$$@" -name '*.go' ! -name '*_test.go' ! -path './bench/*'; }; \
	printf '%-32s %6d\n' internal/provider/predict.go $$(count internal/provider/predict.go) \
		internal/provider $$(count $$(src internal/provider)) \
		internal/core $$(count $$(src internal/core)) \
		internal/algo $$(count $$(src internal/algo)) \
		'core + provider + algo' $$(count $$(src internal/core internal/provider internal/algo)) \
		internal/shape $$(count $$(src internal/shape)) \
		internal/storage $$(count $$(src internal/storage)) \
		internal/sqlengine $$(count $$(src internal/sqlengine)) \
		internal/par $$(count $$(src internal/par)) \
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

# One pass of the three case-path benchmarks (a whole INSERT INTO … SHAPE,
# then tokenize and Decision_Trees training alone on the nested caseset) and
# of the two prediction-join benchmarks (a whole-table NATURAL PREDICTION JOIN
# and a singleton one), with allocations, so they keep compiling and running
# and the log shows what a training case and a prediction allocate. Numbers
# are recorded in EXPERIMENTS.md; the partitioned PREDICTION JOIN path is
# measured by `go run ./bench` (predict_batch).
bench-parallel:
	$(GO) test -run '^$$' -bench 'BenchmarkInsertNested|BenchmarkTokenizeNested|BenchmarkTrainDecisionTreesNested|BenchmarkE4_PredictionJoinNatural|BenchmarkE4_PredictionSingleCase' -benchtime=1x -benchmem .

# Instrumentation-overhead guard: fails when enabling the obs registry slows
# the PREDICTION JOIN scan by more than 10% over WithObsRegistry(nil). The
# instrumented side runs with the flight recorder considering every statement
# and the metrics-history ticker snapshotting, so the 10% budget prices in
# the whole recorder+history pipeline.
bench-smoke:
	BENCH_SMOKE=1 $(GO) test -run TestObsOverheadSmoke -v .

# Concurrency smoke: five seconds of mixed dmload traffic (8 reader
# connections + a training loop) against an in-process dmserver. Fails on
# any statement error or zero throughput. -slo surfaces over-budget
# statements with their wire-correlated seq; -check-recorder then asserts
# $SYSTEM.DM_FLIGHT_RECORDER is non-empty and joins DM_QUERY_LOG on SEQ.
# No latency-ratio gate here: CI hosts are too small for stable
# tail-latency comparisons (the ratio is measured and recorded in
# EXPERIMENTS.md instead).
loadsmoke:
	$(GO) run ./cmd/dmload -conns 8 -duration 5s -scale 200 -slo 250ms -check-recorder

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
