GO ?= go

.PHONY: all build test race bench fuzz soak-pacing fmt vet staticcheck

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

# bench runs the per-figure benchmarks EXPERIMENTS.md records. Round and
# serving speed are measured by the pinned benchmark instead:
# bash benchmark/run.sh --workload <name> (see benchmark/README.md).
bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

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
