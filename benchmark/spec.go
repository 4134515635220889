package main

import (
	"fmt"
	"time"

	"sharedwd/internal/core"
	"sharedwd/internal/workload"
)

// loopKind is how a workload's load is generated.
type loopKind int

const (
	loopRounds    loopKind = iota // single goroutine calling Engine.Step
	loopBinary                    // closed loop, Submit over binproto connections
	loopHTTPBatch                 // closed loop, SubmitBatch over HTTP keep-alive connections
	loopOpen                      // open loop, SubmitAsync on a Poisson schedule
)

// Serving shape shared by the three serve-* workloads.
const (
	roundInterval = time.Millisecond
	tickerBatch   = 256 // MaxBatch no queue here reaches: rounds close on the ticker
	queueDepth    = 16384

	callersPerConn = 64 // serve-binary: callers parked on each multiplexed connection
	// sizePacedBatch is serve-binary's MaxBatch: half the callers a shard
	// sees, so a round closes the moment it is reached and the next one is
	// already filling. With rounds closed by the 1 ms ticker a closed loop
	// locks onto it: every caller is answered one or two ticks after it asked,
	// which of the two flips with the box's speed, and lat_ms_p50 read 1.1 or
	// 1.8 ms (ops_per_s 100k or 77k) from one run to the next.
	sizePacedBatch = callersPerConn / 2
	httpBatchSize  = 64 // serve-http-batch: queries per SubmitBatch
	junkShare      = 0.05

	// latencyLimit is the p99 limit of the serving workloads: ten round
	// intervals, the §I interactivity budget internal/batching already uses.
	latencyLimit = 10 * roundInterval
	// openDeadline is the per-item deadline on serve-open. An answer later
	// than latencyLimit already counts as a miss; the deadline is far beyond
	// it so that a stall of the box (one of 100 ms was seen) makes requests
	// late, not failed.
	openDeadline = 2 * time.Second

	occurrenceSets = 4096 // pre-sampled rounds a rounds-* workload cycles through
	verifyRounds   = 500  // oracle pass length per rounds-* workload
	// pacedHorizon is rounds-steady-paced's pacing horizon and budget-refresh
	// period; pacedDay is how many rounds its lifecycle schedule covers, which
	// also caps the run so budgets never go unrefreshed.
	pacedHorizon = 20000
	pacedDay     = 50 * pacedHorizon
)

// openRates are serve-open's pinned arrival rates in queries per second:
// about 25 %, 50 % and 70 % of the fleet's closed-loop saturation on the
// seed commit (calibration record in README.md). They are literals so that
// the load never moves with the change under test.
var openRates = [3]float64{2500, 5000, 7000}

// spec describes one workload. Everything the program sees is generated
// from these fields plus the run's seed.
type spec struct {
	name string
	why  string
	loop loopKind
	// loopDesc states open or closed loop and its rate or caller count.
	loopDesc string

	wcfg workload.Config
	ecfg core.Config

	// maxBatch is server.Config.MaxBatch on serve-*: the queue length at
	// which a round closes without waiting for the ticker.
	maxBatch int

	// bidWalk is the PerturbBids scale applied after every round, so that
	// every bid moves: between timed Steps on rounds-* (untimed), as
	// server.Config.BidWalkScale on serve-*. 0 leaves bids alone.
	bidWalk float64

	// rounds-* only.
	rebidShare float64 // share of advertisers re-bidding per round
	paced      bool    // Ledger + Pacer + Lifecycle attached
}

func richBudgets(c workload.Config) workload.Config {
	// Budgets no run can exhaust, so per-round work does not decay.
	c.MinBudget, c.MaxBudget = 1e6, 2e6
	return c
}

func specs() []*spec {
	big := workload.DefaultConfig()
	big.NumAdvertisers, big.NumPhrases, big.NumTopics = 2000, 64, 8

	overlap := workload.HighOverlapConfig()
	overlap.NumAdvertisers, overlap.NumPhrases = 2000, 64

	small := workload.DefaultConfig() // 400 × 24

	naive := core.DefaultConfig()
	naive.Policy = core.Naive

	naiveCached := naive
	naiveCached.IncrementalCache = true

	throttled := core.DefaultConfig()
	throttled.IncrementalCache = true

	rates := fmt.Sprintf("%g/%g/%g", openRates[0], openRates[1], openRates[2])
	rate := openRates[headlinePhase]

	return []*spec{
		{
			name:     "rounds-churn",
			why:      "Low-overlap rounds with every bid moving and the cache off: plan, topk and leaf scoring do the work, serving layers none.",
			loop:     loopRounds,
			loopDesc: "single goroutine, Engine.Step back to back",
			wcfg:     richBudgets(big),
			ecfg:     naive,
			bidWalk:  0.05,
		},
		{
			name:       "rounds-steady-paced",
			why:        "High-overlap rounds on the dirty-cone cache with 1% re-bids, a binding pacer and lifecycle events: the only place budget.Pacer works.",
			loop:       loopRounds,
			loopDesc:   "single goroutine, Engine.Step back to back",
			wcfg:       overlap,
			ecfg:       naiveCached,
			rebidShare: 0.01,
			paced:      true,
		},
		{
			name:     "serve-binary",
			why:      "Closed loop of single-query Submit over the binary edge on a cheap engine: binproto, intake ring, reply path and shard routing dominate.",
			loop:     loopBinary,
			loopDesc: "closed, nproc connections x 64 callers, rounds closed by size",
			wcfg:     richBudgets(small),
			ecfg:     naiveCached,
			maxBatch: sizePacedBatch,
		},
		{
			name:     "serve-http-batch",
			why:      "Closed loop of 64-query SubmitBatch over HTTP keep-alive: netserve JSON and the batch admission path, which serve-binary never touches.",
			loop:     loopHTTPBatch,
			loopDesc: "closed, nproc callers x 64-query batches",
			wcfg:     richBudgets(small),
			ecfg:     naiveCached,
			maxBatch: tickerBatch,
		},
		{
			name:     "serve-open",
			why:      fmt.Sprintf("Open loop at a pinned %g qps (%s when traced), timed from due time, on the heavy throttled engine in process: queue wait and round cadence.", rate, rates),
			loop:     loopOpen,
			loopDesc: fmt.Sprintf("open, one generator, Poisson at %g qps; traced: %s qps in three equal phases", rate, rates),
			wcfg:     richBudgets(big),
			ecfg:     throttled,
			maxBatch: tickerBatch,
			bidWalk:  0.05,
		},
	}
}

func findSpec(name string) *spec {
	for _, sp := range specs() {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// metricDef declares one metric; the tables below drive the output and are
// held equal to BENCHMARK.json by the smoke test.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only
}

// endToEnd lists the metrics a user of the system would see. Every one is
// reported on every workload; what an operation is depends on the loop: one
// Engine.Step on rounds-* (ops_per_s counts auctions), one query on serve-*.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "heap_mb", unit: "MiB", better: "lower", bound: 0.25},
	{name: "lat_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "lat_ms_p90", unit: "ms", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "cpu_us_per_op", unit: "us", better: "lower", bound: 0.25},
}

// perLayer lists the metrics of single layers, all from the traced pass and
// all reported on every workload (0 where the layer is not on the workload's
// path). The comment on each says — as written down before measuring — which
// end-to-end metric it should move and on which workload, and where the
// prediction is no change (∅).
var perLayer = []metricDef{
	{name: "topk.fold_ns_per_entry", unit: "ns", better: "lower"},  // lat_ms_p50 on rounds-churn; ∅ serve-binary
	{name: "topk.merge_ns_per_entry", unit: "ns", better: "lower"}, // lat_ms_p50 on rounds-churn; ∅ serve-binary
	{name: "topk.push_ns_per_entry", unit: "ns", better: "lower"},  // lat_ms_p50 on rounds-churn; ∅ serve-binary

	{name: "plan.run_us_p50", unit: "us", better: "lower"},                // lat_ms_p50 on rounds-churn; lat_ms_p90 on serve-open
	{name: "plan.run_incremental_us_p50", unit: "us", better: "lower"},    // lat_ms_p50 on rounds-steady-paced
	{name: "plan.instr_total", unit: "count", better: "lower"},            // lat_ms_p50 on rounds-churn
	{name: "plan.materialized_per_round", unit: "count", better: "lower"}, // lat_ms_p50 on rounds-churn
	{name: "plan.recomputed_per_round", unit: "count", better: "lower"},   // lat_ms_p50 on rounds-steady-paced
	{name: "plan.cached_per_round", unit: "count", better: "higher"},      // lat_ms_p50 on rounds-steady-paced
	{name: "plan.cache_hit_share", unit: "share", better: "higher"},       // lat_ms_p50 on rounds-steady-paced; ∅ rounds-churn (cache off)

	{name: "sharedagg.build_ms", unit: "ms", better: "lower"},               // setup_s everywhere
	{name: "sharedagg.agg_ops_per_auction", unit: "count", better: "lower"}, // ops_per_s on rounds-churn
	{name: "sharedagg.expected_cost", unit: "count", better: "lower"},       // ops_per_s on rounds-churn

	{name: "core.step_us_p50", unit: "us", better: "lower"},              // lat_ms_p50 and ops_per_s on rounds-*; lat_ms_p90 on serve-open; ∅ serve-http-batch
	{name: "core.step_us_p99", unit: "us", better: "lower"},              // lat_ms_p90 and loadgen.lat_ms_p99 on rounds-*
	{name: "core.step_self_us_p50", unit: "us", better: "lower"},         // lat_ms_p50 on rounds-*: Step minus standalone plan run and pricing
	{name: "core.independent_step_us_p50", unit: "us", better: "lower"},  // base of core.sharing_speedup
	{name: "core.sharing_speedup", unit: "ratio", better: "higher"},      // independent / shared Step p50; the paper's claim, ~1 on rounds-churn today
	{name: "core.unpaced_step_us_p50", unit: "us", better: "lower"},      // base of core.pacing_overhead_ratio
	{name: "core.pacing_overhead_ratio", unit: "ratio", better: "lower"}, // paced / unpaced Step p50 on rounds-steady-paced; 1 elsewhere
	{name: "core.allocs_per_round", unit: "count", better: "lower"},      // heap_mb; must stay 0
	{name: "core.ns_per_query", unit: "ns", better: "lower"},             // ladder base: Engine.Step per query of the recorded batches

	{name: "pricing.prices_ns_per_auction", unit: "ns", better: "lower"}, // lat_ms_p50 on rounds-churn (small share)

	{name: "budget.throttle_ns_per_advertiser", unit: "ns", better: "lower"}, // lat_ms_p90 on serve-open; ∅ rounds-churn (Naive)
	{name: "budget.pacer_sync_us_p50", unit: "us", better: "lower"},          // lat_ms_p50 on rounds-steady-paced; ∅ elsewhere
	{name: "budget.pacer_throttled_share", unit: "share", better: "lower"},   // lat_ms_p50 on rounds-steady-paced via the dirty cone
	{name: "budget.ledger_charge_ns", unit: "ns", better: "lower"},           // lat_ms_p50 on rounds-steady-paced and serve-* (tiny)

	{name: "workload.match_ns_per_query", unit: "ns", better: "lower"},            // ops_per_s on serve-binary (tiny)
	{name: "workload.lifecycle_events_per_round", unit: "count", better: "lower"}, // lat_ms_p50 on rounds-steady-paced

	{name: "server.admission_wait_ms_p50", unit: "ms", better: "lower"}, // lat_ms_p50 on serve-*; ∅ rounds-*
	{name: "server.admission_wait_ms_p99", unit: "ms", better: "lower"}, // lat_ms_p90 and loadgen.lat_ms_p99 on serve-open
	{name: "server.round_wait_ms_p50", unit: "ms", better: "lower"},     // lat_ms_p50 on serve-* (about half a round interval)
	{name: "server.round_wait_ms_p99", unit: "ms", better: "lower"},     // lat_ms_p90 and loadgen.lat_ms_p99 on serve-*
	{name: "server.wd_us_p50", unit: "us", better: "lower"},             // lat_ms_p90 and cpu_us_per_op on serve-open
	{name: "server.total_ms_p50", unit: "ms", better: "lower"},          // lat_ms_p50 on serve-*
	{name: "server.total_ms_p99", unit: "ms", better: "lower"},          // lat_ms_p90 and loadgen.lat_ms_p99 on serve-*
	{name: "server.batch_per_round", unit: "count", better: "higher"},   // cpu_us_per_op on serve-*
	{name: "server.rounds_per_s", unit: "1/s", better: "lower"},         // cpu_us_per_op on serve-*
	{name: "server.empty_round_share", unit: "share", better: "lower"},  // cpu_us_per_op on serve-*
	{name: "server.shed", unit: "count", better: "lower"},               // ops_per_s on serve-*
	{name: "server.timed_out", unit: "count", better: "lower"},          // ops_per_s on serve-*
	{name: "server.expired", unit: "count", better: "lower"},            // ops_per_s on serve-open
	{name: "server.hist_clamped_share", unit: "share", better: "lower"}, // validity of server.*_p99: samples in the histogram's clamping top bucket
	{name: "server.added_ns_per_query", unit: "ns", better: "lower"},    // ladder: server.Server.SubmitBatch minus Engine.Step
	{name: "server.allocs_per_query", unit: "count", better: "lower"},   // ladder: allocations at the server.Server boundary

	{name: "shard.added_ns_per_query", unit: "ns", better: "lower"}, // ops_per_s on serve-binary; ladder: shard.Server (1 shard) minus server.Server
	{name: "shard.skew", unit: "ratio", better: "lower"},            // lat_ms_p90 on serve-open: the slower shard sets the tail

	{name: "binproto.encode_ns_per_frame", unit: "ns", better: "lower"}, // cpu_us_per_op on serve-binary; ∅ others
	{name: "binproto.edge_ms_p50", unit: "ms", better: "lower"},         // lat_ms_p50 on serve-binary: caller RTT minus server-side latency, per request
	{name: "binproto.edge_ms_p99", unit: "ms", better: "lower"},         // lat_ms_p90 and loadgen.lat_ms_p99 on serve-binary
	{name: "binproto.added_ns_per_query", unit: "ns", better: "lower"},  // ops_per_s on serve-binary; ladder: loopback minus shard.Server
	{name: "binproto.allocs_per_query", unit: "count", better: "lower"}, // cpu_us_per_op on serve-binary

	{name: "netserve.edge_ms_p50", unit: "ms", better: "lower"},         // lat_ms_p50 on serve-http-batch
	{name: "netserve.edge_ms_p99", unit: "ms", better: "lower"},         // lat_ms_p90 and loadgen.lat_ms_p99 on serve-http-batch
	{name: "netserve.added_ns_per_query", unit: "ns", better: "lower"},  // ops_per_s on serve-http-batch; ladder: HTTP loopback minus shard.Server
	{name: "netserve.allocs_per_query", unit: "count", better: "lower"}, // cpu_us_per_op on serve-http-batch
	{name: "netserve.bytes_per_query", unit: "B", better: "lower"},      // cpu_us_per_op on serve-http-batch: JSON body bytes both ways

	{name: "loadgen.lat_ms_p99", unit: "ms", better: "lower"},                // the caller's p99 of one operation; not end to end because it does not repeat within a tenth on this box
	{name: "loadgen.send_lag_ms_p99", unit: "ms", better: "lower"},           // validity of serve-open: above 1 ms the run is reported invalid
	{name: "loadgen.r1.lat_ms_p99", unit: "ms", better: "lower"},             // serve-open at the lowest pinned rate
	{name: "loadgen.r2.lat_ms_p99", unit: "ms", better: "lower"},             // serve-open at the middle pinned rate
	{name: "loadgen.r3.lat_ms_p99", unit: "ms", better: "lower"},             // serve-open at the highest pinned rate
	{name: "loadgen.r1.within_limit_share", unit: "share", better: "higher"}, // serve-open: answered correctly within 10 ms of due time / due
	{name: "loadgen.r3.within_limit_share", unit: "share", better: "higher"}, // serve-open at the highest pinned rate
	{name: "loadgen.max_ok_rate_qps", unit: "1/s", better: "higher"},         // serve-open: highest pinned rate with p99 within the limit and no backlog growth (a rung)
	{name: "loadgen.backlog_growth_r3", unit: "count", better: "lower"},      // serve-open: in flight at phase end minus phase start
	{name: "loadgen.allocs_per_op", unit: "count", better: "lower"},          // whole-process mallocs per operation, generator included
	{name: "loadgen.failed_share", unit: "share", better: "lower"},           // failed, shed, timed out or wrong / attempted; 0 on every workload
	{name: "loadgen.self_share", unit: "share", better: "lower"},             // share of traced root-span time not covered by calls into the program
	{name: "trace.overhead_share", unit: "share", better: "lower"},           // traced vs untraced slice of the same run (lat p50 on rounds-*, ops/s on serve-*)
	{name: "trace.spans", unit: "count", better: "higher"},                   // spans kept in the ring and written under the out directory
}
