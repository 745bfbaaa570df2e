# Convenience targets for the wfqueue reproduction repository.

GO ?= go

# All generated output (CSV results, soak/stress logs, benchmark baselines)
# lands here; the directory is untracked (see .gitignore).
ARTIFACTS ?= artifacts

.PHONY: all build vet lint cert cert-check test race short bench bench-json bench-json-sharded bench-handles bench-scq bench-coalesce bench-topo bench-trajectory bench-all bench-compare fuzz stress soak ci experiments examples clean

all: build vet lint test

# What .github/workflows/ci.yml runs; keep the two in sync.
ci: build vet lint cert-check
	$(GO) test -short -count=1 ./...
	$(GO) test -race -short -count=1 ./...
	$(GO) test ./internal/core -fuzz FuzzAgainstModel -fuzztime 10s -run '^$$'

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# wfqlint: the static-analysis suite proving the lock-free invariants
# (DESIGN.md §5) — atomic hygiene, no blocking on hot paths, bounded-loop
# obligations, 32-bit alignment, cache-line layout, and the escape gate
# over the compiler's -m output. Exits nonzero on any finding.
lint:
	$(GO) run ./cmd/wfqlint all

# wfqcert: refresh the committed step-bound certificate baseline after a
# reviewed bound change (DESIGN.md §5). cert-check is the CI gate — it
# rebuilds the certificate from the tree and fails on any regression
# against the committed artifact (grown bound, vanished op, new model
# assumption, grown symbol value).
cert:
	$(GO) run ./cmd/wfqlint cert -out $(ARTIFACTS)/wfqcert.json

cert-check:
	$(GO) run ./cmd/wfqlint cert -baseline $(ARTIFACTS)/wfqcert.json

test:
	$(GO) test ./... -count=1

short:
	$(GO) test ./... -count=1 -short

race:
	$(GO) test -race ./... -count=1

# One testing.B family per paper table/figure plus ablations (DESIGN.md §7).
bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable perf baseline: throughput + memory metrics per queue and
# the zero-allocation gate on the core hot path (exits nonzero if the
# recycling path allocates at steady state). Writes BENCH_core.json at the
# repo root — the committed baseline. CI runs this as bench-smoke.
bench-json:
	$(GO) run ./cmd/wfqbench json -out BENCH_core.json \
		-ops 50000 -trials 3 -iters 3 -nowork -nopin

# Lane-scaling baseline for the sharded multi-lane queue: the sharded
# variants against wf-10 under oversubscription (GOMAXPROCS=8, 8 threads),
# recording the wf-sharded/wf-10 pairwise ratio. Writes BENCH_sharded.json
# at the repo root — the committed baseline.
bench-json-sharded:
	GOMAXPROCS=8 $(GO) run ./cmd/wfqbench json -out BENCH_sharded.json \
		-queues wf-sharded,wf-sharded-8,wf-sharded-1,wf-sharded-rr \
		-threads 8 -ops 50000 -trials 3 -iters 3 -nowork -nopin

# Handle-lifecycle baseline: the exact zero-allocation gates on
# AcquireHandle/Release (core) and Register/Release (sharded), and
# handle-churn throughput (workload.Churn) for the churn-safe queues
# (DESIGN.md §6).
# Writes BENCH_handles.json at the repo root — the committed baseline.
bench-handles:
	$(GO) run ./cmd/wfqbench handles -out BENCH_handles.json \
		-ops 50000 -trials 3 -iters 3 -nowork -nopin

# Bounded-ring baseline (DESIGN.md §7): the exact zero-allocation gate on a
# warm SCQ ring (TryEnqueue/Dequeue across hundreds of ring wraps), pairs
# throughput for the bounded variants, the pairwise wf-scq vs wf-10 wall
# ratio, and the stalled-consumer adversary — bounded queues must keep
# retention under a capacity-derived bound (the flat-RSS gate) while wf-10's
# linear growth is recorded alongside. The pairwise tolerance is wider than
# the default 0.20: the double-ring indirection plus the helping-layer check
# honestly costs ~20-25% at T=1 (measured 0.75-0.81x across runs on the
# 1-hw-thread baseline host), so the floor sits at 0.70 to gate real
# regressions without flaking on that spread. Writes BENCH_scq.json at the
# repo root — the committed baseline.
bench-scq:
	$(GO) run ./cmd/wfqbench scq -out BENCH_scq.json -tolerance 0.30 \
		-ops 50000 -trials 3 -iters 3 -nowork -nopin

# Operation-coalescing baseline: the exact zero-allocation gate per window
# (the coalesced hot path's buffers live inside the handle, so every window
# must run allocation-free at steady state), run-grouped throughput for the
# wf-coalesce-w{1,4,16,64} variants, and the pairwise ratios over wf-10 from
# interleaved best-of rounds — window 1 must not tax the disabled path and
# window 16 must never be a pessimization. Writes BENCH_coalesce.json at the
# repo root — the committed baseline (see EXPERIMENTS.md for the window-sweep
# methodology and the single-hardware-thread caveat on the speedup target).
bench-coalesce:
	$(GO) run ./cmd/wfqbench coalesce -out BENCH_coalesce.json \
		-ops 50000 -trials 3 -iters 3 -nowork -nopin

# Topology-placement baseline (DESIGN.md §9): the exact zero-allocation
# gate over the topology surface (LLC-domain lane placement,
# distance-ordered steal sweeps, the parking ladder), Figure-2-style
# throughput-vs-threads curves for wf-10 / wf-sharded / wf-sharded-topo
# over a GOMAXPROCS sweep, and the pairwise wf-sharded-topo vs wf-sharded
# ratio from interleaved best-of rounds — topology placement must never tax
# the queue it guides. On a one-hardware-thread host the curves collapse to
# a single point and the pairwise gate is skipped (recorded as
# degenerate=true); the alloc gate is host-independent. Writes
# BENCH_topo.json at the repo root — the committed baseline.
bench-topo:
	$(GO) run ./cmd/wfqbench topo -out BENCH_topo.json \
		-ops 50000 -trials 3 -iters 3 -nowork -nopin

# Merge every committed BENCH_*.json into BENCH_trajectory.json, keyed by
# the PR that introduced each baseline. Pure reader: no benchmarks run.
bench-trajectory:
	$(GO) run ./cmd/wfqbench trajectory -out BENCH_trajectory.json

# Regenerate every committed perf baseline, then the merged trajectory.
bench-all: bench-json bench-json-sharded bench-handles bench-scq bench-coalesce bench-topo bench-trajectory

# Bench trajectory gate: re-run the committed baselines' measurements and
# fail on any steady-state allocation regression, or (on the baseline's
# platform) on a >20% wall throughput drop or a coalescing window that
# falls below its pairwise floor. CI runs this.
bench-compare:
	$(GO) run ./cmd/wfqbench compare -baseline BENCH_core.json -nowork -nopin
	$(GO) run ./cmd/wfqbench compare -baseline BENCH_coalesce.json -nowork -nopin

fuzz:
	$(GO) test ./internal/core -fuzz FuzzAgainstModel -fuzztime 30s
	$(GO) test ./internal/lcrq -fuzz FuzzAgainstModel -fuzztime 30s

stress: | $(ARTIFACTS)
	$(GO) run ./cmd/wfqstress -queue wf-10 -threads 8 -duration 30s | tee $(ARTIFACTS)/stress_output.txt
	$(GO) run ./cmd/wfqstress -queue wf-10 -mode lincheck -duration 10s | tee -a $(ARTIFACTS)/stress_output.txt

# Long validation across every implementation, plus one batched pass over
# the wait-free queue's native k-cell reservation path.
soak: | $(ARTIFACTS)
	for q in wf-10 wf-0 lcrq msqueue ccqueue kpqueue simqueue of chan wf-sharded wf-sharded-1 wf-sharded-8; do \
		$(GO) run ./cmd/wfqstress -queue $$q -threads 8 -duration 10s || exit 1; \
	done 2>&1 | tee $(ARTIFACTS)/soak_output.txt
	$(GO) run ./cmd/wfqstress -queue wf-10 -threads 8 -duration 10s -batch 8 2>&1 | tee -a $(ARTIFACTS)/soak_output.txt
	$(GO) run ./cmd/wfqstress -queue wf-10 -threads 8 -duration 10s -coalesce 2>&1 | tee -a $(ARTIFACTS)/soak_output.txt
	$(GO) run ./cmd/wfqstress -queue wf-sharded -threads 8 -duration 10s -coalesce 2>&1 | tee -a $(ARTIFACTS)/soak_output.txt
	$(GO) run ./cmd/wfqstress -topo -churn -threads 8 -duration 10s 2>&1 | tee -a $(ARTIFACTS)/soak_output.txt

# Regenerate the paper's tables and figures (quick parameters; add
# WFQ_FLAGS=-paper for the full methodology).
experiments: | $(ARTIFACTS)
	$(GO) run ./cmd/wfqbench all -csv $(ARTIFACTS)/results.csv $(WFQ_FLAGS) | tee $(ARTIFACTS)/experiments_run.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/pipeline
	$(GO) run ./examples/taskpool
	$(GO) run ./examples/latency
	$(GO) run ./examples/comparison

$(ARTIFACTS):
	mkdir -p $(ARTIFACTS)

clean:
	$(GO) clean -testcache
	rm -rf $(ARTIFACTS)
