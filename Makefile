# Developer entry points. Everything is stdlib Go; no tool downloads.

GO ?= go

# PR number stamped onto the per-PR benchmark snapshot `make bench`
# writes next to the committed baseline (BENCH_pr$(PR).json): the
# baseline tracks "current expected cost", the snapshots keep the
# trajectory across PRs diffable.
PR ?= 10

.PHONY: all build test race vet determinism fuzz matrix failover qoe quickstart bench bench-gate scale cover docs-check

all: vet build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# The parallel-core determinism property (Workers=1 vs Workers=4 runs
# must be byte-identical, plan/QoE cache counters included) at three
# host widths: one OS thread, two and four. Five runs each, because a
# width-dependent counter shows up only in some interleavings; the
# four-thread pass also runs under the race detector.
determinism:
	for p in 1 2 4; do GOMAXPROCS=$$p $(GO) test -run TestParallelCoreDeterminism -count=5 ./internal/scenarios || exit 1; done
	GOMAXPROCS=4 $(GO) test -race -run TestParallelCoreDeterminism -count=1 ./internal/scenarios

# Short fuzz passes over the BER decoder, the topology parser, the
# analytic QoE session predictor and the route evaluator (checked against
# its per-router SPF oracle).
fuzz:
	$(GO) test -fuzz='^FuzzDecodeMessage$$' -fuzztime=30s ./internal/snmp
	$(GO) test -fuzz='^FuzzParse$$' -fuzztime=30s ./internal/topo
	$(GO) test -fuzz='^FuzzPredictSession$$' -fuzztime=30s ./internal/qoe
	$(GO) test -fuzz='^FuzzEvaluateMatchesOracle$$' -fuzztime=30s ./internal/fibbing

# The scenario-matrix stress harness as a CI gate.
matrix:
	$(GO) run ./cmd/fiblab -matrix

# The fast-failover cells as a CI gate: BFD+standby vs SNMP-poll twins
# with 10x failure-to-commit latency and stall-ratio invariants.
failover:
	$(GO) run ./cmd/fiblab -failover

# The QoE comparison cells as a CI gate: each skew cell runs three
# times (score-mode off/util/qoe) and the qoe run must deliver strictly
# fewer stall-seconds — predicted and simulated — while staying
# admissible (lies only on the crowd prefix, never worse than no-op).
qoe:
	$(GO) run ./cmd/fiblab -qoe

# Example smoke: quickstart exercises the public API end to end (the CI
# runs it so example drift fails the build).
quickstart:
	$(GO) run ./examples/quickstart

# Refresh the committed benchmark baseline. -benchtime=1x keeps it quick
# and deterministic enough for trajectory tracking; bump it locally when
# measuring a specific optimisation. The bench run and the JSON
# conversion are separate steps so a failing benchmark aborts before the
# baseline is overwritten. Alongside the baseline it writes a per-PR
# snapshot (BENCH_pr$(PR).json) from the same run, so the cost
# trajectory stays diffable PR over PR.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x . > bench.out.tmp || { rm -f bench.out.tmp; exit 1; }
	$(GO) run ./cmd/benchjson -o BENCH_baseline.json < bench.out.tmp || { rm -f bench.out.tmp; exit 1; }
	$(GO) run ./cmd/benchjson -o BENCH_pr$(PR).json < bench.out.tmp; s=$$?; rm -f bench.out.tmp; exit $$s
	@echo wrote BENCH_baseline.json and BENCH_pr$(PR).json

# Regression gate on the delta hot paths, the Gbit-scale planner, the
# failover reaction path, the planner amortisation layer, and the
# parallel simulation core: fails when ns/op of the incremental-SPF
# benchmark, the aggregate traffic plane's 100k-viewer join benchmark,
# the planner fan-out at 1 Gbit/s, the failover-cell runs (BFD+standby
# and SNMP-poll detection), the repeated-planning benchmark (cold
# rebuild vs warm PlanArtifacts reuse — the warm row's baseline sits
# far below cold, so losing the memoisation trips the gate; the
# warm-qoe row is the same warm path with QoE scoring on — stall
# predictor plus qoe-greedy in the fan-out — whose baseline sits within
# 10% of plain warm, so the QoE memoisation cannot silently rot), the
# component-partitioned reshare at both pool widths, or the worker-pool
# churn benchmarks (fat-tree k=8 and the scale tier's k=16, both pool
# widths) regresses >2x against the committed baseline. The planner
# benchmark also asserts a plan commits (so the numerics ceiling cannot
# silently return) and the failover benchmarks assert the failure was
# detected and a plan committed after it, so the fast-failover pipeline
# cannot silently break. The parallel benchmarks additionally gate
# allocs/op (limit 1.05x): the worker pool must not buy wall-clock with
# garbage. The route-evaluator rows (fattree8 under pin-all lies,
# waxman200 plain IGP) gate allocs/op at 1.05x as well: their allocation
# count is deterministic, so that bound does not inherit ns/op noise.
# -count 5 + best-of in benchjson filters scheduler noise.
bench-gate:
	$(GO) test -run '^$$' -bench 'BenchmarkIncrementalVsFull|BenchmarkReshareIncremental|BenchmarkPlannerGbit|BenchmarkPlannerRepeat|BenchmarkReactionLatency/failover' -benchtime 1x -count 5 . > bench.gate.tmp || { rm -f bench.gate.tmp; exit 1; }
	$(GO) run ./cmd/benchjson -baseline BENCH_baseline.json -gate 'IncrementalVsFull.*/incremental$$|ReshareIncremental/viewers=100000/join$$|ReshareIncremental/viewers=100000/components/workers=(1|4)$$|PlannerGbit/1G$$|PlannerRepeat/(cold|warm|warm-qoe)$$|ReactionLatency/failover/(bfd|snmp)$$' -max-ratio 2 < bench.gate.tmp; s=$$?; rm -f bench.gate.tmp; exit $$s
	$(GO) test -run '^$$' -bench 'BenchmarkParallelSPF|BenchmarkScaleTier' -benchtime 1x -count 5 -benchmem . > bench.gate.tmp || { rm -f bench.gate.tmp; exit 1; }
	$(GO) run ./cmd/benchjson -baseline BENCH_baseline.json -gate 'ParallelSPF/(seq|par)$$|ScaleTier/(seq|par)$$' -max-ratio 2 -max-allocs-ratio 1.05 < bench.gate.tmp; s=$$?; rm -f bench.gate.tmp; exit $$s
	$(GO) test -run '^$$' -bench 'BenchmarkEvaluate' -benchtime 1x -count 5 -benchmem . > bench.gate.tmp || { rm -f bench.gate.tmp; exit 1; }
	$(GO) run ./cmd/benchjson -baseline BENCH_baseline.json -gate 'Evaluate/(fattree8-pinall|waxman200-igp)$$' -max-ratio 2 -max-allocs-ratio 1.05 < bench.gate.tmp; s=$$?; rm -f bench.gate.tmp; exit $$s

# The large-topology scaling cells with wall-clock/event telemetry
# (Gbit-capacity defaults; override with -capacity via `go run`).
scale:
	$(GO) run ./cmd/fiblab -scale

# Per-package statement coverage with CI-failing floors on the packages
# whose correctness rests on analytic claims rather than exercised
# plumbing: internal/qoe (the stall predictor the planner trusts) and
# internal/controller (admissibility and scoring). Floors sit a few
# points under the seed numbers — 92.6% for internal/qoe and 69.6% for
# internal/controller at the time the floors were pinned — so organic
# refactors don't trip them but a dropped test file does.
cover:
	@$(GO) test -cover ./... | tee cover.out.tmp; s=$$?; \
	if [ $$s -ne 0 ]; then rm -f cover.out.tmp; exit $$s; fi; \
	for want in internal/qoe:88.0 internal/controller:68.0; do \
	  pkg=$${want%%:*}; floor=$${want##*:}; \
	  pct=$$(grep -E "fibbing.net/fibbing/$$pkg	" cover.out.tmp \
	    | grep -oE '[0-9.]+% of statements' | cut -d'%' -f1); \
	  if [ -z "$$pct" ]; then \
	    echo "cover: no coverage line for $$pkg" >&2; rm -f cover.out.tmp; exit 1; \
	  fi; \
	  if ! awk -v p="$$pct" -v f="$$floor" 'BEGIN{exit !(p+0 >= f+0)}'; then \
	    echo "cover: $$pkg at $$pct% is below the $$floor% floor" >&2; \
	    rm -f cover.out.tmp; exit 1; \
	  fi; \
	  echo "cover: $$pkg $$pct% >= $$floor% floor"; \
	done; rm -f cover.out.tmp

# Documentation gate: vet plus a grep-based link-and-anchor check over
# README.md and docs/ARCHITECTURE.md — every relative markdown link must
# point at an existing file and every #fragment at a real heading. Pure
# sh/grep/sed, no tool downloads, like the rest of the build.
docs-check: vet
	@set -e; \
	for doc in README.md docs/ARCHITECTURE.md; do \
	  test -f "$$doc" || { echo "docs-check: $$doc missing" >&2; exit 1; }; \
	  dir=$$(dirname "$$doc"); \
	  for target in $$(grep -oE '\]\([^)]+\)' "$$doc" | sed -e 's/^](//' -e 's/)$$//' | grep -Ev '^(http|mailto:)' ); do \
	    file=$${target%%\#*}; anchor=$${target#*\#}; \
	    if [ -n "$$file" ]; then \
	      test -e "$$dir/$$file" || { echo "docs-check: $$doc links missing file $$target" >&2; exit 1; }; \
	    fi; \
	    if [ "$$anchor" != "$$target" ] && [ -n "$$anchor" ]; then \
	      src="$$dir/$$file"; [ -n "$$file" ] || src="$$doc"; \
	      grep -hE '^#{1,6} ' "$$src" | sed -e 's/^#\{1,6\} //' | tr '[:upper:]' '[:lower:]' \
	        | sed -e 's/[^a-z0-9 -]//g' -e 's/ /-/g' | grep -qx "$$anchor" \
	        || { echo "docs-check: $$doc links missing anchor $$target" >&2; exit 1; }; \
	    fi; \
	  done; \
	done
	@grep -q 'docs/ARCHITECTURE.md' doc.go || { echo "docs-check: doc.go does not reference docs/ARCHITECTURE.md" >&2; exit 1; }
	@grep -q 'docs/ARCHITECTURE.md' README.md || { echo "docs-check: README.md does not link docs/ARCHITECTURE.md" >&2; exit 1; }
	@echo docs-check OK
