GO ?= go

.PHONY: all build test allocs race bench fuzz soak-pacing servedemo-smoke fmt vet staticcheck

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...
	$(MAKE) --no-print-directory allocs

# allocs runs the allocation gates, the one list that make test and CI's
# zero-alloc leg both run. The AllocsPerRun tests skip under the race
# detector, so they only bind in a non-race run, and -count=1 keeps a
# cached pass from standing in for one. The first line is the
# 0-allocs-per-round gate (and the query matcher's 0 per query), the second
# the same kind of gate on the HTTP edge's codec, the third on the round loop's answer path (less than one
# allocation per resolve), the fourth on the plan build (allocations per
# sharedagg.Build).
allocs:
	$(GO) test -count=1 -run 'ZeroAlloc' ./internal/core ./internal/workload ./internal/sharedsort ./internal/budget
	$(GO) test -count=1 -run 'TestBatchCodecAllocs' ./internal/netserve
	$(GO) test -count=1 -run 'TestCloseRoundAllocs' ./internal/server
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
# a PushRun fold), the compiled plan runner against memo Execute on
# random instances, plans and fusion thresholds, and the engine's shared
# threshold pass at an arbitrary τ against both a τ = +Inf twin, which
# scores on demand and scans every phrase, and an Independent twin that
# scores every participant, random interleavings of the engine's Tick and
# Resolve against a per-phrase sort of each resolve's reference round bids
# (budgets held, ledger settled), the click simulator's timing wheel against
# the pending-slice reference, the query matcher's allocation-free
# normalization against Normalize, the trace CSV reader (no panic; what parses
# has the header's width and finite non-negative bids, and reads back bit
# for bit after WriteCSV), the
# HTTP edge's decoders, strict matchers with an encoding/json fallback,
# against encoding/json (request bodies; reply bytes and client decoding,
# slot arrays repeated within a reply included),
# the live feed's WebSocket frame reader (no panic, masked and bounded frames,
# round trip), and the pacer, which updates only the advertisers whose
# factor can change, against the reference controller that steps every
# advertiser (factors bit for bit). CI's fuzz smoke leg runs this target.
# -fuzzminimizetime bounds how long a fuzzer may minimize a new input, which
# otherwise can take its whole -fuzztime.
fuzz:
	$(GO) test -run='^$$' -fuzz='FuzzFrameRoundTrip' -fuzztime=10s -fuzzminimizetime=5s ./internal/binproto
	$(GO) test -run='^$$' -fuzz='FuzzMalformedFrame' -fuzztime=10s -fuzzminimizetime=5s ./internal/binproto
	$(GO) test -run='^$$' -fuzz='FuzzMergeRuns' -fuzztime=10s -fuzzminimizetime=5s ./internal/topk
	$(GO) test -run='^$$' -fuzz='FuzzFoldRun' -fuzztime=10s -fuzzminimizetime=5s ./internal/topk
	$(GO) test -run='^$$' -fuzz='FuzzScanRun' -fuzztime=10s -fuzzminimizetime=5s ./internal/topk
	$(GO) test -run='^$$' -fuzz='FuzzCompiledRun' -fuzztime=10s -fuzzminimizetime=5s ./internal/plan
	$(GO) test -run='^$$' -fuzz='FuzzThresholdRound' -fuzztime=10s -fuzzminimizetime=5s ./internal/core
	$(GO) test -run='^$$' -fuzz='FuzzTickResolve' -fuzztime=10s -fuzzminimizetime=5s ./internal/core
	$(GO) test -run='^$$' -fuzz='FuzzClickSim' -fuzztime=10s -fuzzminimizetime=5s ./internal/workload
	$(GO) test -run='^$$' -fuzz='FuzzNormalize' -fuzztime=10s -fuzzminimizetime=5s ./internal/workload
	$(GO) test -run='^$$' -fuzz='FuzzReadTraceCSV' -fuzztime=10s -fuzzminimizetime=5s ./internal/workload
	$(GO) test -run='^$$' -fuzz='FuzzHTTPBody' -fuzztime=10s -fuzzminimizetime=5s ./internal/netserve
	$(GO) test -run='^$$' -fuzz='FuzzHTTPReply' -fuzztime=10s -fuzzminimizetime=5s ./internal/netserve
	$(GO) test -run='^$$' -fuzz='FuzzReadFrame' -fuzztime=10s -fuzzminimizetime=5s ./internal/netserve
	$(GO) test -run='^$$' -fuzz='FuzzPacer' -fuzztime=10s -fuzzminimizetime=5s ./internal/budget

# soak-pacing runs the day-in-the-life budget-pacing soak (EXPERIMENTS.md):
# calibrate natural spend, verify the unpaced baseline front-loads, then
# verify pacing spreads every hot advertiser's budget across the day —
# plus the sharded-vs-single pacing equivalence and the -race pacing suite.
# CI's budget pacing soak leg runs this target.
soak-pacing:
	$(GO) test -run 'TestSoakPacingDay' -count=1 -v .
	$(GO) test -run 'TestShardedEquivalencePacing' -count=1 ./internal/shard
	$(GO) test -race -count=1 ./internal/budget

# servedemo-smoke runs the facade's one serving program end to end: a
# 2-shard fleet behind both network edges (NewNetServer) under synthetic
# load for 2 s, then the graceful Shutdown. It must exit 0, print exactly
# two per-second snapshot lines (a run that overruns -duration prints a
# third), and report a positive answered count. CI runs this target.
servedemo-smoke:
	@out=$$($(GO) run ./cmd/servedemo -duration 2s -clients 4 -shards 2 \
		-listen 127.0.0.1:0 -listen-binary 127.0.0.1:0) || exit 1; \
	echo "$$out"; \
	s=$$(echo "$$out" | awk '/^uptime /{on=1; next} on && /^$$/{exit} on{n++} END{print n+0}'); \
	[ "$$s" -eq 2 ] || { echo "servedemo printed $$s snapshot lines for -duration 2s, want 2"; exit 1; }; \
	n=$$(echo "$$out" | sed -nE 's/^submitted [0-9]+, answered ([0-9]+) .*/\1/p'); \
	[ "$${n:-0}" -gt 0 ] || { echo "servedemo answered no queries"; exit 1; }
