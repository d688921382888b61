# Single source of truth for build/test/lint commands: CI (.github/workflows/
# ci.yml) and humans invoke the same targets.

GO ?= go

# Sequence number for committed benchmark baselines (BENCH_<N>.json).
N ?= dev

# Benchmark-run knobs for bench-json: which benchmarks (regex), how long
# each (1x = compile-and-run smoke; the regression gate uses a time-based
# budget so light benchmarks average over many iterations), and how many
# whole-suite repeats (benchcmp gates on the per-benchmark minimum, so
# COUNT>1 suppresses scheduler/GC noise).
BENCH ?= .
BENCHTIME ?= 1x
COUNT ?= 1

# Benchmarks the regression gate times: the steady-state engine, tick-loop,
# fleet-stepping, and block-KV paths. The macro table/figure
# benchmarks stay in bench/bench-json as one-iteration smoke — they re-run
# whole experiment fixtures per iteration and carry too much noise to gate
# at 10%.
GATEBENCH ?= TickLoop|EventFleet|LiveAdvanceTick|EngineSoak|EngineKV

# Committed baseline the perf-regression gate compares against.
BASE ?= 10

# Budget for the fuzz-smoke target (per fuzz target).
FUZZTIME ?= 30s

.PHONY: all build bench-check test lint lint-ext lint-selftest docs-check bench bench-json bench-gate profile smoke scenario-smoke event-smoke fidelity-smoke serve-smoke chaos-smoke restore-smoke fuzz-smoke kv-smoke parity loc

all: build lint docs-check test

build:
	$(GO) build ./...

# The end-to-end benchmark (bench/) is its own module built against this
# one through a replace directive; nothing else compiles it, so a change to
# a type it uses would otherwise surface only when the benchmark runs.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Event-fidelity tests push internal/expt past the default 10-minute
# per-package budget under the race detector; give the suite headroom.
test:
	$(GO) test -race -timeout 30m ./...

# The blocking lint gate: vet, gofmt, and the project's own dynamolint
# analyzers (internal/lint — determinism, conservation laws, steady-state
# allocation discipline; stdlib-only, so it always runs). staticcheck/govulncheck are external binaries: they
# run when installed (CI installs pinned versions; offline boxes skip
# them with a notice rather than failing).
lint:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt: these files need formatting:"; echo "$$out"; exit 1; fi
	$(GO) run ./cmd/dynamolint ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "lint: staticcheck not installed; skipped (CI runs the pinned version via lint-ext)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		else echo "lint: govulncheck not installed; skipped (CI runs the pinned version via lint-ext)"; fi

# External linters, unconditionally (fails if not installed). CI installs
# the pinned versions and runs this as a separate advisory step: the
# offline dev environment cannot establish a clean baseline for them, so
# they must not be able to mask a dynamolint regression by failing first.
lint-ext:
	staticcheck ./...
	govulncheck ./...

# Prove the lint gate actually gates: inject a wall-clock read into a
# sim-deterministic package and assert dynamolint exits non-zero.
lint-selftest:
	./scripts/lint_selftest.sh

# One iteration of every benchmark, compile-and-run smoke only (no timing).
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Benchmark trajectory: run every benchmark with -benchmem and emit
# BENCH_$(N).json (ns/op, B/op, allocs/op, custom metrics per benchmark).
# CI archives the result; perf PRs commit it as the next baseline. The
# scratch file is removed on every path, including failures.
bench-json:
	$(GO) test -bench='$(BENCH)' -benchtime=$(BENCHTIME) -count=$(COUNT) -benchmem -run='^$$' ./... > bench.out || { rm -f bench.out; exit 1; }
	$(GO) run ./cmd/benchjson -out BENCH_$(N).json < bench.out || { rm -f bench.out; exit 1; }
	@rm -f bench.out
	@echo "wrote BENCH_$(N).json"

# Perf-regression gate: a fresh best-of-3, 1s-per-benchmark run of the
# $(GATEBENCH) set, compared against the committed BENCH_$(BASE).json
# baseline. Fails on >10% ns/op slowdown (same-CPU runs only —
# cross-machine deltas are warnings); allocs/op growth beyond 5% warns.
# Perf PRs that move the needle on purpose re-baseline with:
#   make bench-json N=<next> BENCH='$(GATEBENCH)' BENCHTIME=1s COUNT=3
bench-gate:
	$(MAKE) bench-json N=gate BENCH='$(GATEBENCH)' BENCHTIME=1s COUNT=3
	$(GO) run ./cmd/benchcmp BENCH_$(BASE).json BENCH_gate.json

# Flame-graph entry point: profile the six-system cluster hour through the
# real CLI. Start future perf work here, not from a guess.
profile:
	$(GO) run ./cmd/dynamobench -quick -cpuprofile cpu.prof -memprofile mem.prof fig6 > /dev/null
	@echo "wrote cpu.prof mem.prof; inspect with: go tool pprof -http=:8080 cpu.prof"

# Docs gate: gofmt/vet (via lint) plus a package-comment audit, so every
# internal package stays documented.
docs-check:
	./scripts/check_package_comments.sh

# End-to-end: regenerate the paper's headline numbers through the real CLI.
smoke:
	$(GO) run ./cmd/dynamobench -quick headline

# End-to-end: the scenario sweep (library x six systems) through the real
# CLI; CI uploads the output as an artifact.
scenario-smoke:
	$(GO) run ./cmd/dynamobench -quick scenarios | tee scenario-sweep.txt

# End-to-end: one scenario on the event-level instance backend, race
# detector on (the event clock and engines are per-run state — this is
# the guard that keeps them that way). Thin peak and the shortest
# scenario: event mode is the slow path and the assertion is completion,
# not scale (~5 min under -race).
event-smoke:
	$(GO) run -race ./cmd/dynamobench -quick -peak 5 -fidelity event scenario flashcrowd

# Fluid-vs-event cross-validation deltas through the real CLI; CI ships
# the table with the scenario-sweep artifact.
fidelity-smoke:
	$(GO) run ./cmd/dynamobench -quick fidelity | tee fidelity-deltas.txt

# End-to-end: the live serving control plane. Starts an event-fidelity
# dynamoserve, drives it with dynamoload at 500 req/s, injects a runtime
# event, scrapes /metrics, and asserts a clean drain on shutdown.
serve-smoke:
	./scripts/serve_smoke.sh

# Fault-injection sweep through the real CLI, race detector on: crash
# intensity x straggler fraction x retry budget across the six systems
# (quick grid, thin peak). CI uploads the table as an artifact.
chaos-smoke:
	$(GO) run -race ./cmd/dynamobench -quick -peak 5 chaos | tee chaos-sweep.txt

# End-to-end crash recovery: durable dynamoserve under load, kill -9,
# restore from the WAL + checkpoint, assert no acked request was lost.
restore-smoke:
	./scripts/restore_smoke.sh

# End-to-end: the KV sweep — capacity x prefix x disagg x spill tier —
# through the real CLI, race detector on (thin peak, for time under
# -race; the quick grid's tier cells exercise the swap link under both cpu
# and ssd bandwidths). CI uploads the table as an artifact.
kv-smoke:
	$(GO) run -race ./cmd/dynamobench -quick -peak 5 kv | tee kv-sweep.txt

# Byte-identity gate for refactors: dynamobench stdout at BASE (a git
# revision here, e.g. `make parity BASE=HEAD~1`) vs the working tree over
# the experiment list in scripts/parity.sh.
parity:
	./scripts/parity.sh $(BASE)

# Non-test Go lines per package directory and in total (tracked files,
# outside bench/ and testdata/): the one count the simplicity bar cites.
loc:
	./scripts/loc.sh

# Short coverage-guided fuzz passes over the scenario JSON loader, the
# /request and /events body decoders, the restore decoders (WAL,
# checkpoint) and the trace CSV reader, race detector on. The corpora seed
# from the builtin library, the /request and /events test bodies, torn and
# corrupted state files, and other known-nasty inputs; CI runs this
# budget on every push so new validation gaps fail fast rather than
# waiting for a long offline campaign. go test accepts one -fuzz target
# per invocation.
fuzz-smoke:
	$(GO) test -race -run='^$$' -fuzz=FuzzScenarioLoad -fuzztime=$(FUZZTIME) ./internal/scenario
	$(GO) test -race -run='^$$' -fuzz='^FuzzReadWAL$$' -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -race -run='^$$' -fuzz='^FuzzReadCheckpoint$$' -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -race -run='^$$' -fuzz='^FuzzDecodeEvents$$' -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -race -run='^$$' -fuzz='^FuzzDecodeRequest$$' -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -race -run='^$$' -fuzz='^FuzzReadCSV$$' -fuzztime=$(FUZZTIME) ./internal/trace
