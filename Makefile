# Developer entry points. The repo is stdlib-only Go; everything below
# runs offline with just the Go toolchain.

GO ?= go

.PHONY: all build vet fmt-check test test-race test-tls test-elastic test-recovery test-quota test-autoscale fuzz-short bench bench-probe bench-smoke bench-check check

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

# The race detector sweep focuses on the concurrent subsystems: the
# network service (sessions, credits, drain), the shard router and its
# daemon, and the software engines.
test-race:
	$(GO) test -race ./internal/server/... ./internal/shard/... ./internal/wire/... ./internal/softjoin/... ./cmd/streamshard/...

# The secured-wire suite: TLS round trips, auth-token rejection, TLS/
# plaintext mismatch handling, and the secured shard redial — across the
# server, the shard router, and the facade options API. In-test
# self-signed certificates; no fixtures or network beyond loopback.
test-tls:
	$(GO) test -run 'TLS|Auth|Secure' -v . ./internal/server/ ./internal/shard/

# The elasticity suite: live shard-set rebalancing (grow, shrink, chained
# resizes, abort/crash recovery), engine state export/import, the session
# pool, and the streamshard admin endpoint — then the rebalance and pool
# paths again under the race detector.
test-elastic:
	$(GO) test -run 'Rebalance|ImportExport|ExportState|Pool|Admin|Elastic' -v \
		./internal/shard/ ./internal/softjoin/ ./internal/server/ ./internal/rebalance/... \
		./cmd/streamshard/ ./internal/experiments/
	$(GO) test -race -run 'Rebalance|Pool' ./internal/shard/ ./internal/server/

# The durability suite: checkpoint encode/decode and store properties
# (corruption, truncation, crash-mid-snapshot fallback), engine quiesce
# and snapshot cuts, the server restore/resume path, the coordinated
# all-shard snapshot, the admin snapshot endpoint, and the recovery
# experiment shape — then the snapshot/restore paths again under the
# race detector.
test-recovery:
	$(GO) test -run 'Checkpoint|Snapshot|Restore|Recovery|Quiesce|Resume' -v \
		./internal/checkpoint/ ./internal/softjoin/ ./internal/server/ \
		./internal/shard/ ./cmd/streamshard/ ./internal/experiments/
	$(GO) test -race -run 'Checkpoint|Snapshot|Restore' \
		./internal/server/ ./internal/shard/ ./internal/softjoin/

# The multi-tenant admission suite: the controller's bookkeeping, the
# session-cap race, the window-memory budget, lossless rate shaping, the
# v1/v2 handshake interop, tenant passthrough on shard redial and
# rebalance, and the facade precedence/quota surface — then the
# controller and the server's admission path again under the race
# detector.
test-quota:
	$(GO) test -run 'Quota|Tenant|Admission|Admit|V1ClientInterop|DialOptionPrecedence|OpenV2|RejectCode' -v \
		./internal/admission/ ./internal/server/ ./internal/shard/ ./internal/wire/ .
	$(GO) test -race -run 'Quota|Tenant|Admit' ./internal/admission/ ./internal/server/ ./internal/shard/

# The autoscaling suite: the policy/controller unit tests (hysteresis,
# cooldown, square-wave flap resistance, clock regressions), the router
# and daemon closed loops (grow/shrink under live ingest, oracle-equal),
# the redial backoff hint fix, and the admission hardening regressions
# (tenant eviction, bucket clock, throttle teardown) — then the
# controller and the scale paths again under the race detector.
test-autoscale:
	$(GO) test -run 'Autoscale|Scale|Policy|Redial|Signals|Cooldown|SquareWave|Streak|Trigger|Evict|BucketClock|ThrottledSession|QuotaTenants' -v \
		./internal/autoscale/ ./internal/shard/ ./internal/admission/ \
		./internal/server/ ./cmd/streamshard/ ./internal/experiments/
	$(GO) test -race -run 'Autoscale|Tick|Scale|Evict' \
		./internal/autoscale/ ./internal/shard/ ./internal/admission/ ./cmd/streamshard/

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
