# Developer entry points. The repo is stdlib-only Go; everything below
# runs offline with just the Go toolchain.

GO ?= go

.PHONY: all build vet fmt-check test test-race fuzz-short bench bench-probe bench-smoke bench-check check

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails if any file needs gofmt; prints the offending paths.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

# The race detector over every package that starts goroutines or is
# driven concurrently. internal/experiments is left out: its tests assert wall-clock shapes,
# which the detector's slowdown distorts, and its concurrency is the
# packages below.
test-race:
	$(GO) test -race . ./cmd/streamshard/ ./internal/admission/ ./internal/autoscale/ \
		./internal/checkpoint/ ./internal/rebalance/ ./internal/server/ ./internal/shard/ \
		./internal/softjoin/ ./internal/stream/ ./internal/wire/

# Short fuzzing pass over the wire-protocol decoders (10s per target),
# seeded from the corruption-test corpus, then the scan kernel's lanes
# against scalar Comparator.Eval. CI-sized; run `go test -fuzz` directly
# for longer campaigns.
fuzz-short:
	@for f in FuzzReadFrame FuzzDecodeBatch FuzzDecodeResults FuzzDecodeControl; do \
		echo "fuzzing $$f"; \
		$(GO) test -run "^$$f$$" -fuzz "^$$f$$" -fuzztime 10s ./internal/wire/ || exit 1; \
	done
	@for f in FuzzDecode FuzzDecodeManifest FuzzDecodeChunk; do \
		echo "fuzzing checkpoint $$f"; \
		$(GO) test -run "^$$f$$" -fuzz "^$$f$$" -fuzztime 10s ./internal/checkpoint/ || exit 1; \
	done
	@echo "fuzzing FuzzParsePolicy"; \
	$(GO) test -run '^FuzzParsePolicy$$' -fuzz '^FuzzParsePolicy$$' -fuzztime 10s ./internal/autoscale/
	@echo "fuzzing FuzzBlockScan"; \
	$(GO) test -run '^FuzzBlockScan$$' -fuzz '^FuzzBlockScan$$' -fuzztime 10s ./internal/stream/

# Hot-path microbenchmarks (allocations reported), then the end-to-end
# software figure; the JSON rows land in BENCH_software.json alongside
# the frozen pre-optimization baseline rows already committed there.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/wire/ ./internal/softjoin/
	$(GO) run ./cmd/benchmark -fig software -json

# Probe-kernel sweep: hash index vs block scan across windows and
# selectivities (comparisons/op reported per point), then the perf
# assertion that the index actually pays off.
bench-probe:
	$(GO) test -run '^$$' -bench '^BenchmarkProbe$$' -benchmem ./internal/softjoin/
	$(GO) test -run '^TestHashKernelOutpacesScan$$' -count=1 -v ./internal/softjoin/

# One-iteration pass over every benchmark: catches bit-rot in bench code
# without paying measurement time. CI runs this.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./internal/wire/ ./internal/softjoin/

# The benchmark harness (bench/) is its own module compiled against this
# one's exported API, so `go build ./...` and `go test ./...` here never
# see it. This vets and tests it, then smoke-runs the two workloads that
# cross the result path and the shard router against in-process servers —
# a root-module change that breaks the harness fails here, not in the
# benchmark run.
bench-check:
	$(GO) vet -C bench ./... && $(GO) test -C bench ./... && bash bench/run.sh --workload result_heavy --smoke && bash bench/run.sh --workload sharded_mixed --smoke

check: build vet fmt-check test bench-check
