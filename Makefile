GO ?= go

.PHONY: all build test race bench bench-shard bench-server bench-binary bench-json bench-compare fuzz soak-pacing fmt vet staticcheck

all: build test

build:
	$(GO) build ./...

# The second line is the 0-allocs-per-round gate: the AllocsPerRun tests
# skip under the race detector, so they only bind in a non-race run, and
# -count=1 keeps a cached pass from standing in for one. The third is the
# same kind of gate on the plan build (allocations per sharedagg.Build).
test:
	$(GO) test ./...
	$(GO) test -count=1 -run 'ZeroAlloc' ./internal/core
	$(GO) test -count=1 -run 'TestBuildAllocBudget' ./internal/sharedagg

race:
	$(GO) test -race ./...

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

# staticcheck runs the pinned honnef.co analyzer without adding a module
# dependency (go run fetches the tool into the build cache only).
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@2024.1.1 ./...

bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# bench-shard runs only the shard-count throughput sweep (1/2/4/8 shards
# over the same serving load) for quick scaling checks.
bench-shard:
	$(GO) test -bench='ShardedThroughput' -benchmem -benchtime=2s -run='^$$' .

# bench-server runs the serving benchmarks: in-process Submit throughput,
# the shard sweep, and both network edges (BenchmarkHTTPThroughput,
# BenchmarkBinaryThroughput) — the last two quantify what each wire
# protocol costs next to in-process numbers. It then diffs the fresh
# numbers against the committed BENCH_server.json with the same gate
# bench-compare applies to the core.
bench-server:
	$(GO) test -bench='ServerThroughput|ShardedThroughput|HTTPThroughput|BinaryThroughput' -benchmem -benchtime=2s -run='^$$' . \
		| $(GO) run ./tools/benchjson -compare BENCH_server.json

# bench-binary runs only the binary-tier throughput benchmark — the quick
# check that the multiplexed frame edge still lands near in-process rates.
bench-binary:
	$(GO) test -bench='BinaryThroughput' -benchmem -benchtime=2s -run='^$$' .

# bench-json runs the core round-resolution and serving benchmarks and
# records them as machine-readable JSON (BENCH_core.json, BENCH_server.json)
# for cross-PR comparison. The serving file carries the single-server
# throughput benchmark, the shard sweep, and both network edges (HTTP and
# binary).
bench-json:
	$(GO) test -bench='RoundResolution|IncrementalRounds|SteadyStateStep' -benchmem -benchtime=2s -run='^$$' . \
		| $(GO) run ./tools/benchjson > BENCH_core.json
	@cat BENCH_core.json
	$(GO) test -bench='ServerThroughput|ShardedThroughput|HTTPThroughput|BinaryThroughput' -benchmem -benchtime=2s -run='^$$' . \
		| $(GO) run ./tools/benchjson > BENCH_server.json
	@cat BENCH_server.json

# bench-compare reruns the core round-resolution benchmarks and diffs them
# against the committed BENCH_core.json, failing on a >20% ns/op regression
# (the CI regression gate runs the same comparison).
bench-compare:
	$(GO) test -bench='RoundResolution|IncrementalRounds|SteadyStateStep' -benchmem -benchtime=2s -run='^$$' . \
		| $(GO) run ./tools/benchjson -compare BENCH_core.json

# fuzz smoke-runs the fuzzers for a few seconds each: the binary protocol's
# frame round-trip property and malformed-input parser hardening (no panic,
# no attacker-sized allocation), and the top-k kernels against their
# reference semantics (MergeRuns and FoldRun against Merge, ScanRun against
# a PushRun fold), and the compiled plan runner against memo Execute on
# random instances, plans and fusion thresholds. CI runs the same budgets.
fuzz:
	$(GO) test -run='^$$' -fuzz='FuzzFrameRoundTrip' -fuzztime=10s ./internal/binproto
	$(GO) test -run='^$$' -fuzz='FuzzMalformedFrame' -fuzztime=10s ./internal/binproto
	$(GO) test -run='^$$' -fuzz='FuzzMergeRuns' -fuzztime=10s ./internal/topk
	$(GO) test -run='^$$' -fuzz='FuzzFoldRun' -fuzztime=10s ./internal/topk
	$(GO) test -run='^$$' -fuzz='FuzzScanRun' -fuzztime=10s ./internal/topk
	$(GO) test -run='^$$' -fuzz='FuzzCompiledRun' -fuzztime=10s ./internal/plan

# soak-pacing runs the day-in-the-life budget-pacing soak (EXPERIMENTS.md):
# calibrate natural spend, verify the unpaced baseline front-loads, then
# verify pacing spreads every hot advertiser's budget across the day —
# plus the sharded-vs-single pacing equivalence and the -race pacing suite.
soak-pacing:
	$(GO) test -run 'TestSoakPacingDay' -count=1 -v .
	$(GO) test -run 'TestShardedEquivalencePacing' -count=1 ./internal/shard
	$(GO) test -race -count=1 ./internal/budget
