# Developer entry points for the CASA reproduction. Everything is plain
# `go` under the hood; these targets just bundle the common flows.

GO ?= go

.PHONY: all build test race cover lint bench bench-quick bench-baseline bench-all fuzz live-smoke serve-smoke walltrace-smoke index-smoke experiments ablations examples clean

all: build test lint

build:
	$(GO) build ./...
	$(GO) vet ./...

# Structural lints the compiler cannot see (engine dispatch must stay in
# the internal/engine registry; modelled packages must stay off the wall
# clock; shared CLI flags and helpers must stay in internal/runcli).
lint:
	bash scripts/lint_engine_registry.sh
	bash scripts/lint_time_domain.sh
	bash scripts/lint_cli_harness.sh

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/batch/ ./internal/core/ ./internal/pipeline/ ./internal/serve/ ./internal/obshttp/ ./internal/progress/ ./internal/trace/ ./internal/runcli/

cover:
	$(GO) test -cover ./...

# Cross-engine casa-bench run, which writes BENCH_seeding.json (schema
# casa-bench/v1; steady host throughput + modelled seconds/cycles per
# engine and worker count) and re-validates it.
bench:
	$(GO) run ./cmd/casa-bench -out BENCH_seeding.json
	$(GO) run ./cmd/casa-bench -validate BENCH_seeding.json

# CI smoke variant: small workload, fewer pool sizes, then the
# regression gate against the committed baseline — model numbers with a
# tight threshold (deterministic, machine-independent) and host
# throughput with a loose floor (0.25 of baseline, absorbing the gap
# between the baseline machine and CI runners while still catching
# order-of-magnitude host-path regressions).
bench-quick:
	$(GO) run ./cmd/casa-bench -scale quick -workers 1,2 -out BENCH_seeding.json
	$(GO) run ./cmd/casa-bench -validate BENCH_seeding.json
	$(GO) run ./cmd/casa-bench -compare bench/baseline-quick.json -threshold 0.10 -host-threshold 0.25 BENCH_seeding.json

# Refresh the committed gate baseline after an intentional model change.
# Two workers keep a multi-worker row on a 2-CPU host (casa-bench skips
# rows wider than GOMAXPROCS).
bench-baseline:
	$(GO) run ./cmd/casa-bench -scale quick -workers 1,2 -out bench/baseline-quick.json

# One bench pass per paper table/figure plus the ablation benches.
bench-all:
	$(GO) test -bench=. -benchmem -benchtime=1x .

fuzz:
	$(GO) test ./internal/seqio/ -fuzz FuzzReadFasta -fuzztime 15s
	$(GO) test ./internal/seqio/ -fuzz FuzzReadFastq -fuzztime 15s
	$(GO) test ./internal/idxio/ -fuzz FuzzIndexRoundTrip -fuzztime 15s
	$(GO) test ./internal/idxio/ -fuzz FuzzIndexCorrupted -fuzztime 15s

# Live-telemetry smoke: a race-built casa-smem run observed mid-flight
# through /progress and /events, then interrupted (see the script).
live-smoke:
	bash scripts/live_smoke.sh

# Seeding-server smoke: a race-built casa-serve answering POST /v1/seed
# with reports matching casa-smem offline, streaming SSE, handling
# concurrent clients, and draining cleanly on SIGTERM (see the script).
serve-smoke:
	bash scripts/serve_smoke.sh

# Wall-trace smoke: seed a toy batch with casa-smem -walltrace and
# assert casa-trace -wall reports the expected worker/shard/read counts
# and utilization lines (see the script).
walltrace-smoke:
	bash scripts/walltrace_smoke.sh

# Index-persistence smoke: for every persisting engine, a casa-smem
# -index run must match a fresh -ref rebuild byte for byte, and the
# sharded composites must agree with their inner engines at shard counts
# 1/2/5 (see the script).
index-smoke:
	bash scripts/index_smoke.sh

# Regenerate every paper table/figure (minutes; see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/casa-experiments -scale default

ablations:
	$(GO) run ./cmd/casa-experiments -scale default -ablation

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/enginecompare
	$(GO) run ./examples/ablation
	$(GO) run ./examples/alignment
	$(GO) run ./examples/metagenomics
	$(GO) run ./examples/longread
	$(GO) run ./examples/variantcalling

clean:
	$(GO) clean ./...
