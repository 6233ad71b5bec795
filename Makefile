GO ?= go

.PHONY: ci build vet fmt test perfbench-test test-race fuzz-smoke fuzz-native overhead bench bench-parallel bench-mem bench-explain bench-queries bench-snapshot bench-planner bench-qtrace bench-baseline bench-check lint-metrics experiments

ci: build vet fmt lint-metrics test perfbench-test test-race fuzz-smoke bench-mem bench-explain bench-queries bench-snapshot bench-planner bench-qtrace overhead bench-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt -l prints nonconforming files; fail if it prints anything.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# perfbench is a nested module, so the root ./... skips it; its tests
# drive the public façade and catch API changes that break the benchmark.
perfbench-test:
	cd perfbench && $(GO) test ./...

# Race detection over the concurrent paths: the pipelined builders, the
# batched slicers, the QueryEngine, the root façade, and the query
# flight recorder.
test-race:
	$(GO) test -race . ./internal/slicing/... ./internal/trace/... ./internal/telemetry/...

# Differential smoke gate: 500 generated programs, every sampled
# criterion sliced through the full configuration matrix and compared
# against the brute-force oracle. Deterministic: any failure prints the
# exact replay command (see docs/TESTING.md). -witness additionally
# replays each OPT query observed and checks every dependence-path
# witness hop against the oracle's dynamic dependences (docs/EXPLAIN.md).
fuzz-smoke:
	$(GO) run ./cmd/fuzzgen -seed 1 -n 500 -witness

# Coverage-guided native fuzzing, a short burst per target. Unbounded
# sessions: go test -fuzz FuzzX -fuzztime 10m <pkg>.
fuzz-native:
	$(GO) test -fuzz FuzzSlicerEquivalence -fuzztime 10s ./internal/fuzzgen/
	$(GO) test -fuzz FuzzGeneratedEquivalence -fuzztime 10s ./internal/fuzzgen/
	$(GO) test -fuzz FuzzTraceReader -fuzztime 10s ./internal/trace/
	$(GO) test -fuzz FuzzDecodeList -fuzztime 10s ./internal/slicing/labelblock/
	$(GO) test -fuzz FuzzLabelsFindRoundTrip -fuzztime 10s ./internal/slicing/opt/

# Guard: a disabled telemetry registry may cost at most 5% over none.
overhead:
	$(GO) test -run TestOverhead -bench BenchmarkTelemetryOverhead -benchtime 5x .

bench:
	$(GO) test -bench . -benchmem .

# Parallel-engine speedups: pipelined builds, batched + concurrent
# slicing vs the sequential GOMAXPROCS=1 baseline -> BENCH_parallel.json.
bench-parallel:
	$(GO) run ./cmd/experiments -exp parallel

# Label storage: bytes, build time, label probes and sequential slice
# time of the FOR bit-packed label blocks -> BENCH_memory.json.
# RunMemory fails the target if FP's or OPT's labels take more than
# 0.5 x 16 bytes per stored pair on any workload.
bench-mem:
	$(GO) run ./cmd/experiments -exp memory

# Observed-query breakdown: every criterion explained on FP/OPT/LP,
# explicit-vs-inferred edge attribution -> BENCH_explain.json. RunExplain
# fails the target if any workload's OPT traversal reports zero inferred
# edges (the optimizations would not be exercised).
bench-explain:
	$(GO) run ./cmd/experiments -exp explain

# Query flight-recorder smoke: replay the interactive query pattern on
# one small workload with the audit log attached. RunQueries fails the
# target if the log ends up empty or any record is malformed (missing
# ID, unknown backend/kind, implausible latency, no cache hits).
bench-queries:
	$(GO) run ./cmd/experiments -exp queries -workload li -queries-out $$(mktemp -u)

# Persistent-snapshot smoke: save FP+OPT graph images for one small
# workload, load them back, and compare against the trace-replay build.
# RunSnapshot fails the target if any loaded graph answers a criterion
# differently from the graphs it was saved from, or if loading is not at
# least 5x faster than rebuilding from the trace (see PERFORMANCE.md).
bench-snapshot:
	$(GO) run ./cmd/experiments -exp snapshot -workload li -snapshot-out $$(mktemp -u)

# Causal-tracing smoke: replay the interactive query pattern on one
# small workload with the per-query tracer attached. RunQtrace fails
# the target if the tail-based sampler's retained set diverges from the
# deterministic 1-in-N prediction, any retained span tree is malformed,
# or any traced query errors.
bench-qtrace:
	$(GO) run ./cmd/experiments -exp qtrace -workload li -qtrace-out $$(mktemp -u)

# Drift check: every stats.Recorder/telemetry counter and gauge name
# registered in code must appear in docs/OBSERVABILITY.md's metric
# tables, and every documented name must still exist in code.
lint-metrics:
	$(GO) run ./cmd/lintmetrics

# Planner smoke: on one small workload, answer a cold criterion by
# checkpointed re-execution and compare against the cheapest graph-build
# path, then replay the criterion stream through the cost-based planner.
# RunPlanner fails the target if the median reexec-vs-build speedup
# falls below 2x, the median planning regret (chosen backend's latency
# over the per-query best) exceeds 1.2, or any backend disagrees on a
# slice (see docs/PLANNER.md).
bench-planner:
	$(GO) run ./cmd/experiments -exp planner -workload li -planner-out $$(mktemp -u)

# Regression gate: regenerate the gated benchmark artifacts into a temp
# directory and diff against bench/baselines (fails when the median
# cross-workload delta of lp/opt batch speedup, compact resident label
# bytes, label probes, or per-backend slice times exceeds the metric's
# allowance — 20% base, scaled up for timing noise; see cmd/benchdiff).
# Baselines are machine-dependent; refresh them on the gating machine
# with `make bench-baseline`.
bench-check:
	@dir=$$(mktemp -d) && \
	$(GO) run ./cmd/experiments -exp parallel,memory,telemetry,snapshot,planner,queries,explain,qtrace \
		-parallel-out $$dir/BENCH_parallel.json \
		-memory-out $$dir/BENCH_memory.json \
		-telemetry-out $$dir/BENCH_telemetry.json \
		-snapshot-out $$dir/BENCH_snapshot.json \
		-planner-out $$dir/BENCH_planner.json \
		-queries-out $$dir/BENCH_queries.json \
		-explain-out $$dir/BENCH_explain.json \
		-qtrace-out $$dir/BENCH_qtrace.json && \
	$(GO) run ./cmd/benchdiff -current $$dir; \
	st=$$?; rm -rf $$dir; exit $$st

# Refresh the bench-check baselines (and the checked-in root artifacts)
# from this machine.
bench-baseline:
	$(GO) run ./cmd/experiments -exp parallel,memory,telemetry,queries,explain,snapshot,planner,qtrace
	mkdir -p bench/baselines
	cp BENCH_parallel.json BENCH_memory.json BENCH_telemetry.json BENCH_snapshot.json BENCH_planner.json BENCH_queries.json BENCH_explain.json BENCH_qtrace.json bench/baselines/

experiments:
	$(GO) run ./cmd/experiments -exp all
