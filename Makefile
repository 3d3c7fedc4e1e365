# Local and CI entry points — .github/workflows/ci.yml runs exactly these
# targets, so a green `make check` locally means a green CI run.

GO ?= go

.PHONY: check build fmt-check vet lint lint-json race test alloc-check fuzz-smoke bound-check bench-module bench bench-smoke bench-compare bench-wall microbench trace-smoke folded-artifact daemon-smoke chaos-smoke snapshot-check trace-check

check: build fmt-check vet lint test alloc-check fuzz-smoke bound-check bench-module microbench trace-smoke daemon-smoke chaos-smoke snapshot-check trace-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt gate: lists every tracked Go file outside testdata/ that gofmt would
# rewrite and fails if there is any (the distlint fixtures under testdata/
# keep their layouts on purpose).
fmt-check:
	@out="$$(gofmt -l $$(git ls-files -- '*.go' ':(exclude)**/testdata/**'))"; \
	if [ -n "$$out" ]; then echo "fmt-check: gofmt would rewrite:"; echo "$$out"; exit 1; fi
	@echo fmt-check: tracked Go files are gofmt-clean

# distlint enforces the determinism, model-soundness, concurrency and
# metrics-integrity invariants the simulator's measured round counts rest on,
# and keeps internal/ free of exports only tests use (see internal/lint;
# `go run ./cmd/distlint -list` names all twelve analyzers). Every
# unsuppressed finding fails the run. The second run lints the boundcheck
# build (see bound-check), whose checked sweep file the default build, and
# so the first run, never compiles.
lint:
	$(GO) run ./cmd/distlint ./...
	$(GO) run ./cmd/distlint -tags boundcheck ./...

# Machine-readable lint report: the same run serialized as a versioned,
# byte-stable JSON schema (suppressed findings included, with their
# //distlint:allow justifications, so every testonly keep lists its
# reason). CI archives distlint.json as an artifact so the suppression
# inventory can be diffed across commits.
lint-json:
	$(GO) run ./cmd/distlint -json ./... > distlint.json
	@echo lint-json: wrote distlint.json

test:
	$(GO) test -race ./...

# Allocation-regression budgets for the pooled hot paths (PERFORMANCE.md):
# steady-state Exchange at 0 allocs/round (reliable and under a drop-only
# fault plan), AggregateMany at 1 alloc/call, UpDownMany at 0,
# ncc.Deliver at 0 allocs/call (reliable and drop-only, on a dense and a
# sparse batch), a PCG iteration within its fixed budget, graph.BFS and
# graph.Grid at 5 and graph.CenterTree at 8 on grid-400, and an
# induced-subgraph kernel sweep or no-larger rebuild at 0 allocs; two
# cold-start budgets that hold across graph sizes, a fresh network's
# first AggregateMany at 29 and
# layered.New at 6; bytes budgets of 32 KiB for compiling a request's
# two-fold global tree set on expander-512, 1 MiB for layered.New of an
# 8×8 grid at p = 61 and 11 MiB for a LayeredSolver solve of E7's
# largest instance; and a prepared MST
# request at 2,300 allocations on grid-400 and 7,100 on expander-512. The
# tests are `//go:build !race` because the race runtime changes allocation
# counts, so this is a separate plain-runtime pass; `make test` covers the
# same code for correctness.
alloc-check:
	$(GO) test -run 'Allocs' . ./internal/graph ./internal/congest ./internal/layered ./internal/ncc ./internal/core ./internal/partwise

# Fuzz smoke: a few seconds of coverage-guided fuzzing per native fuzz
# target, on top of the committed seed corpus that `make test` replays.
# FuzzLinkMatchesPlan holds the fault Link compiled per network to the
# plan's own decisions (internal/faultinject). New inputs the fuzzer finds
# stay in the Go build cache; a failing one is written under the
# package's testdata/fuzz for the repro.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzLinkMatchesPlan$$' -fuzztime 5s -parallel 2 ./internal/faultinject

# Checked scheduling mode: built with -tags boundcheck, every reliable tree
# sweep asserts max(h, c) <= rounds <= delta + c*h against its compiled
# set's congestion c and height h and its largest drawn delay delta
# (internal/congest/boundcheck.go), panicking on a violation. It runs the
# engine and solver tests, the part-wise aggregation and shortcut tests
# (whose aggregations sweep sets compiled from member-local part trees)
# and the quick suite. The default build compiles a no-op, so no gated
# output or allocation budget depends on it.
bound-check:
	$(GO) test -tags boundcheck ./internal/congest ./internal/core ./internal/partwise ./internal/shortcut
	$(GO) run -tags boundcheck ./cmd/experiments -quick -parallel 1 >/dev/null
	@echo bound-check: every reliable tree sweep stayed inside its round bracket

# The distbench benchmark (benchmark/) is its own Go module, so the root
# `go vet ./...` and `go test ./...` never compile it; this vets and tests
# it against the checkout's sources.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Focused race-detector pass over the packages sanctioned to run
# goroutines — the experiments worker pool, the simtrace writer, the
# distlapd serving layer and its obs metrics registry — plus the root
# package, whose prepared-Instance concurrency tests hammer one shared
# instance from parallel solvers; -count=2 shakes out ordering flakes a
# single run can miss. The goroutine analyzer guarantees concurrency
# cannot creep in anywhere else, which is what keeps this narrow target a
# sound whole-repo concurrency gate.
race:
	$(GO) test -race -count=2 . ./internal/experiments/... ./internal/simtrace/... ./internal/service/... ./internal/obs/...

# Suite benchmark: full sweeps through cmd/bench, emitting the
# machine-readable trajectory file BENCH_local.json (schema in README
# "Benchmarking"). LABEL and PARALLEL may be overridden:
#   make bench LABEL=mybox PARALLEL=8
LABEL ?= local
PARALLEL ?= 0

bench:
	$(GO) run ./cmd/bench -label $(LABEL) -parallel $(PARALLEL)

# CI-sized benchmark: quick sweeps, plus the sequential parity oracle
# (-verify re-runs everything at -parallel 1 and requires byte-identical
# tables and traces). Fails if parallelism perturbs any result.
bench-smoke:
	$(GO) run ./cmd/bench -quick -label ci -parallel 4 -verify

# Model-cost gate: quick sweeps compared against the committed baseline
# BENCH_seed_quick.json. Exits nonzero if rounds, messages, or max edge
# load differ from it at all, up or down, on any experiment; wall time is
# reported but never gated. Regenerate the baselines after an intentional
# model change:
#   go run ./cmd/bench -quick -label seed_quick -parallel 1 -out BENCH_seed_quick.json
#   go run ./cmd/bench -label seed -parallel 1 -out BENCH_seed.json
bench-compare:
	$(GO) run ./cmd/bench -quick -label ci -parallel 4 -compare BENCH_seed_quick.json

# Advisory wall-time report: quick sweeps with per-experiment wall deltas
# against the committed quick baseline. Wall time varies by machine and
# load, so this target never fails — it exists to make wall drift visible
# in CI logs, not to gate on it (PERFORMANCE.md "How to profile a
# regression").
bench-wall:
	$(GO) run ./cmd/bench -quick -label ci -parallel 4 -wall BENCH_seed_quick.json

# Go microbenchmarks (per-experiment testing.B harness in bench_test.go,
# the ablations in ablation_bench_test.go and the layer benchmarks), each
# run once: part of `make check` so every benchmark at least compiles and
# completes.
microbench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# End-to-end instrumentation check: run one traced experiment, then render
# the trace with cmd/simtrace, which exits nonzero unless the per-phase
# round sums reproduce the engine totals exactly.
trace-smoke:
	$(GO) run ./cmd/experiments -quick -run E9a -trace $(CURDIR)/.trace-smoke.jsonl >/dev/null
	$(GO) run ./cmd/simtrace $(CURDIR)/.trace-smoke.jsonl >/dev/null
	rm -f $(CURDIR)/.trace-smoke.jsonl
	@echo trace-smoke: accounting identity holds

# Chaos smoke test: the fault-injection tier C1–C2 (quick sweeps) must be
# byte-identical across a repeat run and across worker-pool widths — the
# determinism contract of internal/faultinject (DESIGN.md §9). Any drift
# in fault decisions, retransmission scheduling or the recovery ladder
# shows up as a cmp failure here.
chaos-smoke:
	$(GO) run ./cmd/experiments -chaos -quick -parallel 4 > $(CURDIR)/.chaos-a.txt 2>/dev/null
	$(GO) run ./cmd/experiments -chaos -quick -parallel 4 > $(CURDIR)/.chaos-b.txt 2>/dev/null
	$(GO) run ./cmd/experiments -chaos -quick -parallel 1 > $(CURDIR)/.chaos-c.txt 2>/dev/null
	cmp $(CURDIR)/.chaos-a.txt $(CURDIR)/.chaos-b.txt
	cmp $(CURDIR)/.chaos-a.txt $(CURDIR)/.chaos-c.txt
	rm -f $(CURDIR)/.chaos-a.txt $(CURDIR)/.chaos-b.txt $(CURDIR)/.chaos-c.txt
	@echo chaos-smoke: faulty runs are byte-identical across repeats and widths

# Golden snapshots: both experiment tiers at -parallel 1 must reproduce
# the committed tables byte for byte — the paper suite against
# experiments_output.txt, the chaos tier against chaos_output.txt.
# chaos-smoke and bench-smoke only compare a build with itself, and
# bench-compare sees only per-experiment totals, so this is the gate that
# fails when a refactor moves a fault schedule or a table cell.
# Regenerate after an intentional change:
#   go run ./cmd/experiments -parallel 1 > experiments_output.txt
#   go run ./cmd/experiments -chaos -parallel 1 > chaos_output.txt
snapshot-check:
	$(GO) run ./cmd/experiments -parallel 1 > $(CURDIR)/.snapshot-experiments.txt 2>/dev/null
	$(GO) run ./cmd/experiments -chaos -parallel 1 > $(CURDIR)/.snapshot-chaos.txt 2>/dev/null
	cmp experiments_output.txt $(CURDIR)/.snapshot-experiments.txt
	cmp chaos_output.txt $(CURDIR)/.snapshot-chaos.txt
	rm -f $(CURDIR)/.snapshot-experiments.txt $(CURDIR)/.snapshot-chaos.txt
	@echo snapshot-check: both experiment tiers match their golden files

# Trace gate: the JSONL series traces of the full paper suite, the quick
# paper suite, the quick chaos tier and the full chaos tier must hash to the
# four lines of traces.sha256. A trace records every round's charges, phase
# spans and gauge samples, so this fails when a refactor moves a single
# charge or span, even one that leaves every table cell and bench count in
# place. The full-suite trace (about 64 MB) is the one an engine change to
# the solver's sweeps moves; its run prints experiments_output.txt, as
# snapshot-check already requires. The full chaos trace (about 325 MB,
# 3.2 M lines) drives the tree scheduler's stall, retry and crash-drop
# branches at full size; it is piped from file descriptor 3 straight into
# sha256sum, whose line for it names "-" (standard input), so no file is
# written. On a failure, write the same traces at the parent commit and
# diff them against this tree's (for the chaos tier, `-chaos -parallel 1
# -series -trace F`): the first differing line is the first moved event.
# Regenerate after an intentional change:
#   go run ./cmd/experiments -parallel 1 -series -trace .trace-full.jsonl >/dev/null
#   go run ./cmd/experiments -quick -parallel 1 -series -trace .trace-quick.jsonl >/dev/null
#   go run ./cmd/experiments -chaos -quick -parallel 1 -series -trace .trace-chaos-quick.jsonl >/dev/null
#   sha256sum .trace-full.jsonl .trace-quick.jsonl .trace-chaos-quick.jsonl > traces.sha256
#   go run ./cmd/experiments -chaos -parallel 1 -series -trace /dev/fd/3 3>&1 >/dev/null | sha256sum >> traces.sha256
trace-check:
	$(GO) run ./cmd/experiments -parallel 1 -series -trace $(CURDIR)/.trace-full.jsonl >/dev/null 2>&1
	$(GO) run ./cmd/experiments -quick -parallel 1 -series -trace $(CURDIR)/.trace-quick.jsonl >/dev/null 2>&1
	$(GO) run ./cmd/experiments -chaos -quick -parallel 1 -series -trace $(CURDIR)/.trace-chaos-quick.jsonl >/dev/null 2>&1
	$(GO) run ./cmd/experiments -chaos -parallel 1 -series -trace /dev/fd/3 3>&1 >/dev/null 2>&1 | sha256sum -c traces.sha256
	rm -f $(CURDIR)/.trace-full.jsonl $(CURDIR)/.trace-quick.jsonl $(CURDIR)/.trace-chaos-quick.jsonl
	@echo trace-check: the full and quick series traces of both tiers match their committed hashes

# Daemon and serving-metrics smoke test, one run of distlapd's -selftest.
# It drives the whole request cycle (load → list → solve → multi-RHS batch
# → flow → mst → evict → 404) in-process and exits nonzero on any
# mismatch, including a divergence between a single solve and batch entry
# 0's derived-seed replay. It also verifies the serving-metric identities
# (per-endpoint request counters sum to the served total and the
# status-class counters, latency histogram counts equal per-endpoint
# request counts, cache hits + misses equal instance lookups) and that the
# deterministic /metrics section is byte-stable under re-scrape.
daemon-smoke:
	$(GO) run ./cmd/distlapd -selftest

# Flamegraph folded stacks for the solver experiment: a round-resolved
# trace of E9b rendered as `path weight` lines (feed into flamegraph.pl or
# speedscope). CI uploads the result as an artifact.
folded-artifact:
	$(GO) run ./cmd/experiments -quick -run E9b -series -trace $(CURDIR)/.e9b.jsonl >/dev/null
	$(GO) run ./cmd/simtrace -folded $(CURDIR)/.e9b.jsonl > $(CURDIR)/e9b-folded.txt
	rm -f $(CURDIR)/.e9b.jsonl
	@echo folded-artifact: wrote e9b-folded.txt
