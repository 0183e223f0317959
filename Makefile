# Developer entry points. The repo is stdlib-only Go; everything below
# runs offline with just the Go toolchain.

GO ?= go

.PHONY: all build vet fmt-check test test-race fuzz-short bench bench-probe bench-smoke bench-check check loc

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

# The 386 leg runs natively on amd64 hosts and has no AVX2 sweep, so the
# scan kernel's portable Go lanes carry the softjoin oracle tests end to
# end; the arm64 vet keeps the non-amd64 build (sweep_other.go) compiling.
test:
	$(GO) test ./...
	GOARCH=386 $(GO) test ./internal/stream/ ./internal/softjoin/
	GOARCH=arm64 $(GO) vet ./...

# The race detector over every package that starts goroutines or is
# driven concurrently. internal/experiments owns its engines' drain
# goroutines and its loopback servers; it runs with -short, which skips
# the wall-clock sweeps whose shapes the detector's slowdown distorts,
# and its slowest single-goroutine cycle-simulator tests skip themselves
# under -race (they run in `make test`).
test-race:
	$(GO) test -race . ./cmd/streamload/ ./cmd/streamshard/ ./internal/admission/ ./internal/autoscale/ \
		./internal/checkpoint/ ./internal/daemon/ ./internal/metrics/ ./internal/server/ ./internal/shard/ \
		./internal/softjoin/ ./internal/stream/ ./internal/wire/
	$(GO) test -race -short ./internal/experiments/

# Short fuzzing pass over the wire-protocol decoders (10s per target),
# seeded from the corruption-test corpus, then the scan kernel's lanes
# against scalar Comparator.Eval, the hash index against a linear scan
# (starting generations near 2^32 included), then the hash and scan
# engines against the oracle, then the session's ingest against its
# credit and merge rules. CI-sized; run `go test -fuzz` directly for
# longer campaigns. An engine trace can take ~0.1 s under coverage
# instrumentation, so its minimization is capped by count: the default
# 60 s would stall the pass.
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
	@echo "fuzzing FuzzKeyIndex"; \
	$(GO) test -run '^FuzzKeyIndex$$' -fuzz '^FuzzKeyIndex$$' -fuzztime 10s ./internal/stream/
	@echo "fuzzing FuzzKernelsAgainstOracle"; \
	$(GO) test -run '^FuzzKernelsAgainstOracle$$' -fuzz '^FuzzKernelsAgainstOracle$$' -fuzztime 10s -fuzzminimizetime 10x ./internal/softjoin/
	@echo "fuzzing FuzzIngest"; \
	$(GO) test -run '^FuzzIngest$$' -fuzz '^FuzzIngest$$' -fuzztime 10s ./internal/server/

# Hot-path microbenchmarks (allocations reported), then the end-to-end
# software figure; the JSON rows land in BENCH_software.json alongside
# the frozen pre-optimization baseline rows already committed there.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/wire/ ./internal/softjoin/
	$(GO) run ./cmd/benchmark -fig software -json

# Probe-kernel sweep: hash index vs block scan across windows and
# selectivities (comparisons/op reported per point), then the check that
# the index pays off, which logs the wall-time ratio at W=2^14.
bench-probe:
	$(GO) test -run '^$$' -bench '^BenchmarkProbe$$' -benchmem ./internal/softjoin/
	$(GO) test -run '^TestHashKernelOutpacesScan$$' -count=1 -v ./internal/softjoin/

# One-iteration pass over every benchmark: catches bit-rot in bench code
# without paying measurement time. CI runs this.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./internal/wire/ ./internal/softjoin/ ./internal/server/ ./internal/shard/

# The benchmark harness (bench/) is its own module compiled against this
# one's exported API, so `go build ./...` and `go test ./...` here never
# see it. This vets and tests it, then smoke-runs the two workloads that
# cross the result path and the shard router against in-process servers —
# a root-module change that breaks the harness fails here, not in the
# benchmark run.
bench-check:
	$(GO) vet -C bench ./... && $(GO) test -C bench ./... && bash bench/run.sh --workload result_heavy --smoke && bash bench/run.sh --workload sharded_mixed --smoke

check: build vet fmt-check test bench-check

# Non-test Go code lines per package directory, blank and comment-only
# lines (// lines and /* */ blocks) excluded, then the total: the count a
# change that shrinks the code reports its +/- table from.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.*' ! -path '*/testdata/*' | sort | awk ' \
	{ \
		dir = $$0; sub(/\/[^\/]*$$/, "", dir); sub(/^\.\//, "", dir); \
		if (!(dir in n)) { order[++dirs] = dir; n[dir] = 0 } \
		block = 0; \
		while ((getline line < $$0) > 0) { \
			gsub(/^[ \t]+|[ \t]+$$/, "", line); \
			if (block) { if (line ~ /\*\//) block = 0; continue } \
			if (line ~ /^\/\*/) { block = line !~ /\*\//; continue } \
			if (line != "" && line !~ /^\/\//) n[dir]++ \
		} \
		close($$0) \
	} \
	END { for (i = 1; i <= dirs; i++) { printf "%7d  %s\n", n[order[i]], order[i]; total += n[order[i]] } printf "%7d  total\n", total }'
