# Local targets mirroring .github/workflows/ci.yml job-for-job, so a green
# `make ci` locally means a green pipeline. The repository benchmark is
# perfbench/ (see perfbench/README.md and BENCHMARK.json); `bench-smoke`
# runs each of its workloads briefly and requires correct answers.

GO ?= go

.PHONY: all build loc check-fma check-386 examples fmt vet lint test race test-cancel test-partition test-shardrpc test-incmine test-steal bench bench-kernels smoke-server smoke-shards smoke-metrics smoke-subscribe smoke-explain bench-smoke fuzz-smoke ci

all: build

## build: compile every package and command
build:
	$(GO) build ./...

## loc: Go line counts, non-test and test, with and without perfbench/ —
## run on both sides of a change for its net LOC (not part of ci)
loc:
	sh scripts/loc.sh

## check-fma: cross-compile every package's test binary for GOARCH=arm64 and
## fail if a module source line compiles to a fused multiply-add (FMADDD,
## FMSUBD, FNMADDD, FNMSUBD): a fused product rounds once, so an arm64
## host's answers would differ in the last bits from amd64's and from the DP
## kernel's vector row update. Wrap the product in float64(...) to keep it
## rounded on its own.
check-fma:
	GO=$(GO) sh scripts/check_fma.sh

## check-386: type-check every package and test binary for GOARCH=386 and
## run none of them, so a constant or literal that overflows a 32-bit int
## fails here rather than on a 32-bit user's machine
check-386:
	GOARCH=386 $(GO) build ./...
	GOARCH=386 $(GO) vet ./...

## examples: run every examples/* program and fail on the first non-zero
## exit, so the programs keep working, not just compiling
examples:
	@for d in examples/*/; do \
		echo "examples: $${d%/}"; \
		$(GO) run ./$${d%/} >/dev/null || exit 1; \
	done

## fmt: fail when any file needs gofmt (CI parity); run `gofmt -w .` to fix
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

## vet: static analysis
vet:
	$(GO) vet ./...

## lint: staticcheck + govulncheck. The CI lint job installs both with
## `go install`; locally they are skipped (with a warning) when not on PATH,
## so `make ci` stays green on a machine without them.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (CI runs it)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping (CI runs it)"; \
	fi

## test: the full suite (tier-1 verify), no shortcuts
test:
	$(GO) test ./...

## race: the CI race job — short mode keeps it to a couple of minutes
race:
	$(GO) test -race -short ./...

## test-cancel: the cancellation suites (per-miner, pool, server) under the
## race detector, twice — cancellation paths are timing-sensitive, so the
## repeat flushes order-dependent flakes before they reach main
test-cancel:
	$(GO) test ./... -run Cancel -race -count=2

## test-partition: the SON partitioned-mining suites under the race detector —
## bit-identity of partitioned vs single-shot mines for every configuration,
## phase-1/phase-2 cancellation, the registry's partition capability
## metadata and restriction contract, and the server's scatter-gather path
test-partition:
	$(GO) test -race -count=1 -run 'Partition|Shard|RegistryCapability' ./internal/partition/... ./internal/algo ./internal/server

## test-shardrpc: the distributed shard backend's fault-injection suites
## under the race detector — timeout→retry, straggler→hedge, dead
## shard→failover, stale version→re-push, goroutine-leak checks, and the
## server-level RPC bit-identity matrix
test-shardrpc:
	$(GO) test -race -count=1 ./internal/shardrpc
	$(GO) test -race -count=1 -run 'TestRPCShard' ./internal/server

## test-incmine: the incremental-maintenance suites under the race detector —
## ledger-vs-cold bit-identity for every miner family across arbitrary append
## sequences (including the eviction / non-append / border-exhaustion
## fallbacks), window eviction accounting, and the server's
## subscribe/ingest/SSE surface; then
## the resumable DP rows three times at -cpu 1,4 — the kernel row's
## extend-vs-fresh identity, the DP miners' row store, whose rows the
## verification worker pool builds concurrently, through its fallbacks and
## a mid-mine cancel, and the ledger's resumed refreshes and canceled updates
test-incmine:
	$(GO) test -race -count=1 ./internal/incmine ./internal/stream
	$(GO) test -race -count=1 -run 'Subscribe|Incremental|Ingest|Delta|Eviction' ./internal/server
	$(GO) test -race -count=3 -cpu 1,4 -run 'TailRow|Resum' ./internal/kernel ./internal/algo/exact ./internal/incmine

## test-steal: the work-stealing scheduler and parallel-determinism suites
## under the race detector at -cpu 1,4,8 — the scheduler's determinism,
## steal-under-skew, cancellation and leak checks; the UH-Mine and UFP-growth
## suites, which run the shared subtree fan-out (fork-order fold, cumulative
## subtree progress); the EXPLAIN step-sum check over that progress stream;
## and the miner-level execution-path identity matrix (short mode) pinning
## every registry miner bit-identical, stats included, across
## Workers ∈ {1, 8} at each threshold pair
test-steal:
	$(GO) test -race -cpu 1,4,8 -count=1 ./internal/parallel ./internal/algo/uhmine ./internal/algo/ufpgrowth
	$(GO) test -race -cpu 1,4,8 -count=1 -short -run 'TestExecTuningDeterminism|TestExplainStepsSumToTotals' ./internal/algo

## bench: benchmark smoke run — one iteration each, so perf code keeps compiling and running
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

## bench-kernels: the hot-loop kernel benchmarks — intersection kernels vs
## their scalar references per postings-density band (the dense band's margin
## is enforced) and the DP verification kernel vs prob.PBFreqProbDP on the
## borderline and wide candidate shapes (both margins enforced); writes
## BENCH_kernels.json. End-to-end mine time is perfbench's cold-exact workload
bench-kernels:
	BENCH_KERNELS_OUT=$$(pwd)/BENCH_kernels.json $(GO) test ./internal/kernel -run TestWriteKernelsBench -count=1 -v

## smoke-server: boot userve, register a profile over HTTP, mine, ingest, assert 200s
smoke-server:
	sh scripts/smoke_userve.sh

## smoke-shards: multi-process sharded mining — boot 2 ushard shard servers
## plus a userve coordinator routing phase 1 over them; /mine must be
## byte-identical to the in-process path, including after an /ingest version
## bump invalidates the shards' pinned slices; after the append a repeat query
## must leave the first shard uncontacted (held phase-1 answer) and re-push the
## second a delta, and a lower-threshold query must re-push the first an empty
## delta
smoke-shards:
	sh scripts/smoke_userve.sh shards

## smoke-metrics: observability smoke over the same three-process cluster —
## /metrics on the coordinator and both shards must parse as Prometheus
## text with the expected families, histogram counts must stay monotonic
## across scrapes, and a sharded /mine must leave one stitched trace
## (coordinator phase spans + wire-propagated shard spans) at /debug/traces
smoke-metrics:
	sh scripts/smoke_userve.sh metrics

## smoke-subscribe: continuous-query smoke — usub subscribes over SSE, an
## /ingest batch streams a refresh diff, and the diff's result-set size must
## match a direct /mine of the grown dataset
smoke-subscribe:
	sh scripts/smoke_userve.sh subscribe

## smoke-explain: query-level observability smoke over the real 2-shard
## cluster — a cold POST /explain must report the executed shardrpc plan
## (partition steps, shard attempt timeline, pushed bytes), the repeat GET
## must report the cache-hit path without perturbing the serving cache, and
## /metrics must carry the mine latency histogram's 0.5 s bucket and the
## build-info / uptime gauges
smoke-explain:
	sh scripts/smoke_userve.sh explain

## bench-smoke: the repository benchmark's self-test, then each perfbench
## workload for 3 s; fails unless every run's result line reports
## "correct":true (perfbench exits 0 even when an answer differs from its
## reference, so the grep is the check)
bench-smoke:
	cd perfbench && $(GO) test -count=1 .
	@for w in hot-serve cold-exact ingest-notify; do \
		out=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 3 --trace 0) || exit 1; \
		res=$$(printf '%s\n' "$$out" | tail -n 1); \
		echo "bench-smoke $$w: $$res"; \
		printf '%s' "$$res" | grep -q '"correct":true' || { echo "bench-smoke: $$w answered incorrectly"; exit 1; }; \
	done

## fuzz-smoke: every Fuzz* target in the module for 5 s each — the
## input parsers, the arena and kernel bit-identity targets (the DP row
## update's assembly against its Go loop among them), and the shard
## response decoder. Go fuzzes one target per invocation, so each runs in
## its own `go test -fuzz` call.
FUZZ_TARGETS = \
	./internal/core:FuzzArenaMatchesLegacyConstruction \
	./internal/dataset:FuzzReadUncertain \
	./internal/dataset:FuzzReadFIMI \
	./internal/kernel:FuzzPairBitIdentity \
	./internal/kernel:FuzzKWayBitIdentity \
	./internal/kernel:FuzzFreqTailBitIdentity \
	./internal/kernel:FuzzFreqTailAbove \
	./internal/kernel:FuzzTailRowExtend \
	./internal/kernel:FuzzRowStep \
	./internal/shardrpc:FuzzMineShardResponse \
	./internal/shardrpc:FuzzDecodeTransactions \
	./internal/server:FuzzIngestBody \
	./internal/server:FuzzMineBody

fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; name=$${t##*:}; \
		echo "fuzz-smoke $$pkg $$name"; \
		$(GO) test -run='^$$' -fuzz="^$$name\$$" -fuzztime=5s $$pkg || exit 1; \
	done

## ci: everything the pipeline runs
ci: build check-fma check-386 examples fmt vet lint race test-cancel test-partition test-shardrpc test-incmine test-steal bench bench-kernels smoke-server smoke-shards smoke-metrics smoke-subscribe smoke-explain bench-smoke fuzz-smoke
