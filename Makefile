# Convenience targets for the wfqueue reproduction repository.

GO ?= go

# All generated output (CSV results, soak/stress logs) lands here; the
# directory is untracked (see .gitignore).
ARTIFACTS ?= artifacts

.PHONY: all build vet lint cert cert-check test race short bench fuzz stress soak ci experiments examples clean

all: build vet lint test

# What .github/workflows/ci.yml runs; keep the two in sync.
ci: build vet lint cert-check
	GOOS=linux GOARCH=386 $(GO) build ./...
	GOOS=linux GOARCH=arm $(GO) build ./...
	GOOS=linux GOARCH=arm64 $(GO) build ./...
	$(GO) test -short -count=1 ./...
	$(GO) test -race -short -count=1 ./...
	$(GO) test -race -count=1 -run 'IdlePoll|Precheck' ./internal/core
	$(GO) test -count=1 -run 'IdlePoll' ./internal/core
	$(GO) test -count=1 -run 'Recycl|Reclaim|Hazard|TinySegments|RemappedSegments' ./internal/core
	$(GO) test ./internal/core -fuzz FuzzAgainstModel -fuzztime 10s -run '^$$'
	$(GO) test ./internal/scq -fuzz FuzzAgainstModel -fuzztime 10s -run '^$$'
	$(GO) test . -fuzz FuzzBoundedAgainstModel -fuzztime 10s -run '^$$'
	$(MAKE) soak SOAK_FLAGS="-threads 4 -duration 1s"
	cd wfqperf && $(GO) test -count=1 .

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

fuzz:
	$(GO) test ./internal/core -fuzz FuzzAgainstModel -fuzztime 30s
	$(GO) test ./internal/lcrq -fuzz FuzzAgainstModel -fuzztime 30s
	$(GO) test ./internal/scq -fuzz FuzzAgainstModel -fuzztime 30s
	$(GO) test . -fuzz FuzzBoundedAgainstModel -fuzztime 30s

stress: | $(ARTIFACTS)
	$(GO) run ./cmd/wfqstress -queue wf-10 -threads 8 -duration 30s | tee $(ARTIFACTS)/stress_output.txt
	$(GO) run ./cmd/wfqstress -queue wf-10 -mode lincheck -duration 10s | tee -a $(ARTIFACTS)/stress_output.txt

# Long validation across every registered queue, plus one batched pass over
# the wait-free queue's native k-cell reservation path. The queue list is the
# first column of `wfqbench figure2 -list` minus faa, the microbenchmark
# wfqstress rejects; the wf-coalesce* variants run under -coalesce, the
# exact-accounting audit. CI runs this target with a short SOAK_FLAGS. A
# failing run prints the tail of the log and fails the target.
SOAK_FLAGS ?= -threads 8 -duration 10s
SOAK_LOG = $(ARTIFACTS)/soak_output.txt
soak: | $(ARTIFACTS)
	@queues=$$($(GO) run ./cmd/wfqbench figure2 -list | awk 'NR > 1 && $$1 != "faa" { print $$1 }'); \
	test -n "$$queues" || { echo "soak: no queues listed"; exit 1; }; \
	: > $(SOAK_LOG); \
	run() { \
		echo "soak: $$* $(SOAK_FLAGS)" | tee -a $(SOAK_LOG); \
		$(GO) run ./cmd/wfqstress "$$@" $(SOAK_FLAGS) >> $(SOAK_LOG) 2>&1 || \
			{ tail -n 30 $(SOAK_LOG); echo "soak: FAILED: $$*"; exit 1; }; \
		tail -n 1 $(SOAK_LOG); \
	}; \
	for q in $$queues; do \
		case $$q in wf-coalesce*) run -queue $$q -coalesce ;; *) run -queue $$q ;; esac; \
	done; \
	run -queue wf-10 -batch 8

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
