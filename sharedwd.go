// Package sharedwd is a from-scratch Go implementation of
// "Shared Winner Determination in Sponsored Search Auctions"
// (Martin & Halpern, ICDE 2009).
//
// Sponsored-search providers must solve winner determination — assigning k
// ad slots to the interested advertisers so as to maximize expected realized
// bids — for every search query, before the result page is returned. This
// library implements the paper's three techniques for doing that at high
// query volume, plus every substrate they depend on:
//
//   - Shared top-k aggregation (Section II): when simultaneous auctions
//     share advertisers, a single DAG of binary top-k merges computes all
//     auctions' top-k lists with far fewer aggregation operations than
//     per-auction scans. BuildSharedPlan runs the paper's fragment +
//     greedy-coverage heuristic; the underlying framework (A-plans, the
//     expected materialization cost model, exact planners, the set-cover
//     hardness reductions, and the Figure-5 complexity table per algebraic
//     structure) is exposed through the Plan/Instance types.
//
//   - Shared sorting (Section III): when the advertiser quality factor
//     varies per phrase, only bids are shared; BuildSortPlan constructs a
//     forest of on-demand, caching merge operators so that each shared
//     prefix of the descending-bid order is computed once per round, and
//     ThresholdTopK (Fagin–Lotem–Naor) consumes those streams to find each
//     auction's winners with instance-optimal early termination.
//
//   - Budget uncertainty (Section IV): ads displayed but not yet clicked
//     make remaining budgets uncertain. NewThrottler maintains anytime
//     Hoeffding upper/lower bounds on the throttled bid
//     b̂ = E[min(b, max(0, β−S)/m)], tightening largest-price-first;
//     Compare and TopKUncertain resolve winner determination without
//     computing most throttled bids exactly.
//
// The Engine ties the pieces into a round-based auction processor with GSP /
// VCG / first-price pricing, a delayed-click simulator, and strict budget
// accounting; the Server wraps it in a concurrent online serving layer that
// admits raw queries, batches them into rounds, and answers each within its
// deadline; the workload generator produces the topic-structured synthetic
// traces the benchmark harness (bench_test.go, cmd/fig4, cmd/fig5,
// cmd/gaming, cmd/auctionsim, cmd/servedemo) runs on. See DESIGN.md for the
// full system inventory and EXPERIMENTS.md for paper-vs-measured results.
//
// # Error contract
//
// Facade constructors validate their inputs and return an error on any
// violated invariant; none panic on bad caller input. Must wraps any
// (value, error) pair for examples and static configurations known to be
// valid. Methods on already-constructed values (Engine.Step, plan
// execution) treat caller contract violations — e.g. an occurrence vector
// of the wrong length — as programming errors and panic; each documents
// its invariants.
//
// Serving failures follow one taxonomy across the single-engine Server and
// the ShardedServer. Three sentinels classify every per-query failure:
// ErrOverloaded (the admission queue was full; retryable), ErrServerClosed
// (the server is shutting down; terminal), and ErrNoAuction (the query
// matched no bid phrase; a property of the query, not the server). Submit
// may wrap a sentinel — the sharded server attaches the serving shard and
// global phrase ID via *QueryError — but wrapping always preserves
// identity: test failures with errors.Is against the sentinels (or
// errors.Is(err, context.DeadlineExceeded) for deadline expiry), never
// with string matching, and recover routing context with errors.As.
//
// # Thread safety
//
// Server and ShardedServer are safe for concurrent use. Everything else —
// Engine, SortEngine, Workload, plans, lists, throttlers, streams — is
// single-goroutine unless its documentation says otherwise; the servers
// own the serialization of their engines and workloads. Matcher.Match is
// safe concurrently after configuration.
package sharedwd

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"sharedwd/internal/analytics"
	"sharedwd/internal/auction"
	"sharedwd/internal/binproto"
	"sharedwd/internal/bitset"
	"sharedwd/internal/budget"
	"sharedwd/internal/core"
	"sharedwd/internal/netserve"
	"sharedwd/internal/nonsep"
	"sharedwd/internal/plan"
	"sharedwd/internal/pricing"
	"sharedwd/internal/replan"
	"sharedwd/internal/serr"
	"sharedwd/internal/server"
	"sharedwd/internal/shard"
	"sharedwd/internal/sharedagg"
	"sharedwd/internal/sharedsort"
	"sharedwd/internal/ta"
	"sharedwd/internal/topk"
	"sharedwd/internal/workload"
)

// Must unwraps a constructor's (value, error) result, panicking on error.
// It is the thin escape hatch for examples, tests, and static
// configurations known to be valid:
//
//	l := sharedwd.Must(sharedwd.NewTopKList(4))
func Must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// Domain model (see internal/auction).
type (
	// Advertiser is one bidder: per-click bid, quality factor c_i, budget.
	Advertiser = auction.Advertiser
	// Assignment maps slots to advertisers with its expected value.
	Assignment = auction.Assignment
)

// SolveSeparable performs linear-time winner determination under the
// separability assumption ctr_ij = c_i·d_j.
func SolveSeparable(advertisers []Advertiser, slotFactors []float64) Assignment {
	return auction.SolveSeparable(advertisers, slotFactors)
}

// SolveGeneral performs exact winner determination for an arbitrary
// click-through matrix (maximum-weight bipartite matching).
func SolveGeneral(bids []float64, ctr [][]float64) Assignment {
	return auction.SolveGeneral(bids, ctr)
}

// Top-k aggregation primitives (see internal/topk).
type (
	// TopKList is a bounded descending list of scored advertisers. Not safe
	// for concurrent use.
	TopKList = topk.List
	// TopKEntry is one (advertiser, score) element.
	TopKEntry = topk.Entry
)

// NewTopKList returns an empty k-list. It returns an error unless k ≥ 1.
func NewTopKList(k int) (*TopKList, error) {
	if k < 1 {
		return nil, fmt.Errorf("sharedwd: top-k list needs k ≥ 1, got %d", k)
	}
	return topk.New(k), nil
}

// MergeTopK is the binary top-k aggregation operator ⊕. Both inputs must
// have the same k (an invariant of plan construction); mismatched lists
// are a programming error and panic.
func MergeTopK(a, b *TopKList) *TopKList { return topk.Merge(a, b) }

// Shared aggregation planning (see internal/plan, internal/sharedagg).
type (
	// AggQuery is one aggregate query: advertiser set + search rate.
	AggQuery = plan.Query
	// AggInstance is a shared-aggregation problem instance.
	AggInstance = plan.Instance
	// AggPlan is an A-plan DAG of binary aggregations.
	AggPlan = plan.Plan
)

// NewAggInstance validates and builds a shared-aggregation instance.
func NewAggInstance(numVars int, queries []AggQuery) (*AggInstance, error) {
	return plan.NewInstance(numVars, queries)
}

// BuildSharedPlan runs the paper's two-stage heuristic (fragments + greedy
// expected-coverage completion) and returns a complete, validated plan. It
// returns an error on a nil instance or if the built plan fails validation.
func BuildSharedPlan(inst *AggInstance) (*AggPlan, error) {
	return buildPlan("BuildSharedPlan", inst, sharedagg.Build)
}

// BuildFragmentOnlyPlan is the stage-1-only ablation baseline.
func BuildFragmentOnlyPlan(inst *AggInstance) (*AggPlan, error) {
	return buildPlan("BuildFragmentOnlyPlan", inst, sharedagg.BuildFragmentOnly)
}

// BuildNaivePlan is the unshared per-query baseline.
func BuildNaivePlan(inst *AggInstance) (*AggPlan, error) {
	return buildPlan("BuildNaivePlan", inst, plan.NaivePlan)
}

func buildPlan(name string, inst *AggInstance, build func(*AggInstance) *AggPlan) (*AggPlan, error) {
	if inst == nil {
		return nil, fmt.Errorf("sharedwd: %s of nil instance", name)
	}
	p := build(inst)
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("sharedwd: %s produced an invalid plan: %w", name, err)
	}
	return p, nil
}

// ExecutePlan evaluates a plan for one round with the top-k merge operator:
// leaf(i) supplies advertiser i's singleton k-list; occurring selects the
// round's queries (nil = all). It returns per-query results and the number
// of aggregation nodes materialized.
func ExecutePlan(p *AggPlan, leaf func(v int) *TopKList, occurring []bool) (map[int]*TopKList, int) {
	return plan.Execute(p, leaf, topk.Merge, occurring)
}

type (
	// AggProgram is the flat compilation of a complete plan: a
	// topologically ordered instruction stream over dense arrays, with
	// single-consumer chains and small shared nodes fused into n-ary folds
	// (DESIGN.md §8).
	AggProgram = plan.Program
	// AggRunner executes an AggProgram over dense top-k entry slabs with
	// zero steady-state allocations — the engine's production shared path.
	AggRunner = plan.Runner
)

// CompilePlan lowers a complete plan into its flat instruction stream. It
// returns an error on a nil or invalid plan; the plan must not grow after
// compilation.
func CompilePlan(p *AggPlan) (*AggProgram, error) {
	if p == nil {
		return nil, fmt.Errorf("sharedwd: CompilePlan of nil plan")
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("sharedwd: CompilePlan of invalid plan: %w", err)
	}
	return plan.Compile(p), nil
}

// NewPlanRunner builds a reusable flat executor for the program with
// per-node run capacity k (slots+1 for auction use, matching top-k lists).
func NewPlanRunner(prog *AggProgram, k int) (*AggRunner, error) {
	if prog == nil {
		return nil, fmt.Errorf("sharedwd: NewPlanRunner of nil program")
	}
	if k <= 0 {
		return nil, fmt.Errorf("sharedwd: non-positive run capacity %d", k)
	}
	return plan.NewRunner(prog, k), nil
}

// Shared sorting (see internal/sharedsort, internal/ta).
type (
	// SortPlan is a shared merge-sort forest with one root per phrase.
	SortPlan = sharedsort.Plan
	// SortOptions configures plan construction.
	SortOptions = sharedsort.Options
	// SortStream is a per-consumer cursor over a phrase's sorted stream.
	SortStream = sharedsort.Stream
	// TAStats reports threshold-algorithm work.
	TAStats = ta.Stats
)

// BuildSortPlan constructs a shared merge-sort plan over per-phrase
// advertiser interest sets with the paper's bottom-up greedy heuristic.
func BuildSortPlan(numAdvertisers int, interests []AdvertiserSet, rates []float64, opts SortOptions) (*SortPlan, error) {
	return sharedsort.Build(numAdvertisers, interests, rates, opts)
}

// ThresholdTopK runs the threshold algorithm over two descending sorted
// access paths with score(id) as the combining function.
func ThresholdTopK(k int, byBid, byQuality ta.Source, score func(id int) float64) (*TopKList, TAStats) {
	return ta.TopK(k, byBid, byQuality, score)
}

// Budget uncertainty (see internal/budget).
type (
	// OutstandingAd is a displayed ad awaiting a click.
	OutstandingAd = budget.OutstandingAd
	// Throttler maintains anytime bounds on a throttled bid.
	Throttler = budget.Throttler
	// BidInterval is a [lo, hi] bound on an uncertain throttled bid.
	BidInterval = budget.Interval
)

// NewThrottler builds a throttled-bid bound refiner for one advertiser.
func NewThrottler(id int, bid, budgetLeft float64, auctions int, ads []OutstandingAd) (*Throttler, error) {
	return budget.NewThrottler(id, bid, budgetLeft, auctions, ads)
}

// CompareThrottled orders two throttled bids by lazy bound refinement.
func CompareThrottled(a, b *Throttler) int {
	c, _ := budget.Compare(a, b)
	return c
}

// TopKThrottled selects the k highest throttled bids with lazy refinement.
func TopKThrottled(k int, ts []*Throttler) []*Throttler {
	return budget.TopKUncertain(k, ts).Winners
}

// ExactThrottledBid computes b̂ exactly by subset enumeration (small l).
func ExactThrottledBid(bid, budgetLeft float64, auctions int, ads []OutstandingAd) float64 {
	return budget.ExactThrottledBid(bid, budgetLeft, auctions, ads)
}

// Bidding-program analytics (see internal/analytics; the paper's §VII).
type (
	// AnalyticsService answers shared aggregate queries over phrase sets.
	AnalyticsService = analytics.Service
	// PhraseStats is one phrase's per-round base statistics.
	PhraseStats = analytics.PhraseStats
	// AnalyticsResult is the aggregate over one registered phrase set.
	AnalyticsResult = analytics.Result
)

// NewAnalytics creates an analytics service over a phrase universe. It
// returns an error unless numPhrases ≥ 1. The service is single-goroutine.
func NewAnalytics(numPhrases int) (*AnalyticsService, error) {
	if numPhrases <= 0 {
		return nil, fmt.Errorf("sharedwd: analytics needs a positive phrase universe, got %d", numPhrases)
	}
	return analytics.New(numPhrases), nil
}

// BuildDisjointPlan builds a shared plan whose every aggregation joins
// variable-disjoint children — required for multiset-semantics aggregates
// (sum, count) as opposed to idempotent ones (top-k, max).
func BuildDisjointPlan(inst *AggInstance) (*AggPlan, error) {
	return buildPlan("BuildDisjointPlan", inst, sharedagg.BuildDisjoint)
}

// NonSepResult is the outcome of pruned non-separable winner determination.
type NonSepResult = nonsep.Result

// SolveNonSeparable performs winner determination for an arbitrary
// click-through matrix via k²-pruning + Hungarian matching (the ICDE'08
// framework Section V adapts).
func SolveNonSeparable(bids []float64, ctr [][]float64) NonSepResult {
	return nonsep.Solve(bids, ctr)
}

// Pricing rules (see internal/pricing).
type (
	// PricingRule selects first-price, GSP, or laddered VCG.
	PricingRule = pricing.Rule
	// RankedBidder is an advertiser in effective-bid order for pricing.
	RankedBidder = pricing.Ranked
)

// The pricing rules.
const (
	FirstPrice = pricing.FirstPrice
	GSP        = pricing.GSP
	VCG        = pricing.VCG
)

// Prices computes per-click prices for the ranked winners under the rule.
func Prices(rule PricingRule, ranked []RankedBidder, slotFactors []float64) []float64 {
	return pricing.Prices(rule, ranked, slotFactors)
}

// Engine and workloads (see internal/core, internal/workload).
type (
	// Engine resolves rounds of simultaneous auctions. Single-goroutine:
	// Step, Stats, Report, Drain, and Close must all be called from one
	// goroutine (the Server owns that serialization in the online setting).
	Engine = core.Engine
	// EngineConfig parameterizes the engine.
	EngineConfig = core.Config
	// EngineStats holds one engine's lifetime counters; Add combines
	// counters from multiple engines (Metrics does this per fleet).
	EngineStats = core.Stats
	// RoundReport is one round's outcome. Its slices view engine scratch
	// overwritten by the next Step; copy what you keep.
	RoundReport = core.RoundReport
	// BudgetPolicy selects naive vs throttled bidding.
	BudgetPolicy = core.BudgetPolicy
	// SharingMode selects shared-plan vs independent resolution.
	SharingMode = core.SharingMode
	// SortEngine resolves rounds in the per-phrase-quality regime
	// (Section III: shared merge-sort + threshold algorithm).
	// Single-goroutine, like Engine.
	SortEngine = core.SortEngine
	// SortEngineStats holds the sort engine's counters.
	SortEngineStats = core.SortStats
	// Workload is a generated auction universe. Not safe for concurrent
	// use; owned by whichever engine or server steps it.
	Workload = workload.Workload
	// WorkloadConfig parameterizes workload generation.
	WorkloadConfig = workload.Config
	// Matcher maps raw queries to bid phrases (two-stage). Match is safe
	// for concurrent use once rewrites are configured.
	Matcher = workload.Matcher
	// QueryStream generates raw search-query traffic for the matcher.
	// Single-goroutine; give each load generator its own stream.
	QueryStream = workload.QueryStream
	// Trace is a recorded round sequence for replayable comparisons.
	Trace = workload.Trace
	// AdvertiserSet is a set of advertiser indices. Not safe for
	// concurrent mutation.
	AdvertiserSet = bitset.Set
)

// Online serving layer (see internal/server, internal/shard).
type (
	// Server is the long-lived concurrent round server: it admits raw
	// queries through a bounded queue, batches them into engine rounds,
	// and wakes each caller with its auction's outcome. Safe for
	// concurrent use.
	Server = server.Server
	// ServerConfig parameterizes the server (round interval, batch
	// threshold, queue depth, wrapped engine configuration).
	ServerConfig = server.Config
	// ShardedServer partitions the bid-phrase universe across N engine
	// shards, each with its own admission queue and round loop, with
	// cross-shard advertiser budgets held exact by a central atomic
	// ledger. Safe for concurrent use.
	ShardedServer = shard.Server
	// ShardRouter fixes the phrase → shard assignment at construction.
	ShardRouter = shard.Router
	// HashShardRouter is the stable default router (FNV-1a on the
	// normalized phrase name).
	HashShardRouter = shard.HashRouter
	// FragmentShardRouter co-locates phrases sharing Section II plan
	// fragments to preserve intra-shard sharing.
	FragmentShardRouter = shard.FragmentRouter
	// BudgetLedger is the cross-shard budget authority: per-advertiser
	// remaining/spent reads and the atomic TryCharge that keeps the
	// Section IV invariant exact fleet-wide.
	BudgetLedger = budget.Ledger
	// PacerConfig tunes the online budget-pacing controller (horizon,
	// feedback gain, step clamp, factor floor). See WithPacing.
	PacerConfig = budget.PacerConfig
	// Pacer is the shared pacing controller: it adapts one throttle factor
	// per advertiser each round so budgets exhaust smoothly over the
	// configured horizon instead of front-loaded.
	Pacer = budget.Pacer
	// PacingMetrics is the pacing observability snapshot carried in
	// Metrics (spend curve, throttle activity, pacing-error distribution).
	PacingMetrics = budget.PacingMetrics
	// Lifecycle is an advertiser lifecycle schedule: join/leave campaign
	// windows consumed by the engines and budget-refresh epochs consumed
	// by the pacing controller. See WithLifecycle.
	Lifecycle = workload.Lifecycle
	// LifecycleEvent is one advertiser lifecycle change, effective at the
	// start of its round.
	LifecycleEvent = workload.LifecycleEvent
	// LifecycleKind classifies a lifecycle event (join, leave, refresh).
	LifecycleKind = workload.LifecycleKind
	// LifecycleConfig parameterizes GenerateLifecycle's synthetic
	// day-in-the-life schedules.
	LifecycleConfig = workload.LifecycleConfig
	// Metrics is the unified observability view shared by Server,
	// ShardedServer, and per-shard workers: lifetime counters, queue
	// depth, per-stage latency distributions, derived rates, and the
	// engine's own statistics. Metrics from different workers combine
	// with Merge.
	Metrics = server.Metrics
	// LatencyDist is one serving stage's mergeable latency distribution
	// (exact moments plus a fixed-geometry histogram for quantiles).
	LatencyDist = server.LatencyDist
	// RoundSummary is the per-round event a worker's round loop publishes
	// to the live round feed (the network tier's WebSocket /v1/live
	// broadcasts it as JSON).
	RoundSummary = server.RoundSummary
	// QueryResult is one answered query: phrase, round, slot assignment
	// with per-click prices, per-stage waits, and the serving shard.
	QueryResult = server.Result
	// QueryError attaches routing context (shard, global phrase ID) to a
	// per-query serving failure; errors.Is still matches the wrapped
	// sentinel and errors.As recovers the context.
	QueryError = serr.QueryError
	// ReplanConfig parameterizes online adaptive replanning: the rate
	// tracker's decay, the drift triggers (max per-phrase rate ratio,
	// mean Bernoulli relative entropy), and the warmup/cadence/cooldown
	// hysteresis. See WithReplanner and internal/replan.
	ReplanConfig = replan.Config
	// RateSample is one phrase's observed arrival-rate estimate in a
	// Metrics.Observed report (global phrase ID + rate in [0,1]).
	RateSample = server.RateSample
)

// Serving errors — the package-wide taxonomy every Submit failure reduces
// to (see the package comment's Error contract). The server and shard
// packages alias these same values, so errors.Is matches across spellings.
var (
	// ErrOverloaded: the admission queue was full and the query was shed.
	// Retryable after backoff.
	ErrOverloaded = serr.ErrOverloaded
	// ErrServerClosed: the server no longer admits queries. Terminal.
	ErrServerClosed = serr.ErrClosed
	// ErrNoAuction: the query matched no bid phrase, so no auction ran.
	// A property of the query; retrying it unchanged cannot succeed.
	ErrNoAuction = serr.ErrNoAuction
)

// NewAdvertiserSet returns an empty set holding indices in [0, n).
func NewAdvertiserSet(n int) AdvertiserSet { return bitset.New(n) }

// AdvertiserSetOf returns a set of capacity n with the given members.
func AdvertiserSetOf(n int, members ...int) AdvertiserSet {
	return bitset.FromIndices(n, members...)
}

// Engine mode constants.
const (
	Naive             = core.Naive
	Throttled         = core.Throttled
	SharedAggregation = core.SharedAggregation
	Independent       = core.Independent
)

// DefaultEngineConfig returns a GSP, throttled, shared configuration.
func DefaultEngineConfig() EngineConfig { return core.DefaultConfig() }

// DefaultServerConfig returns the default serving configuration: 5 ms
// rounds, early close at 256 pending queries, a 4096-deep admission queue,
// and the default engine configuration.
func DefaultServerConfig() ServerConfig { return server.DefaultConfig() }

// DefaultWorkloadConfig returns a mid-sized workload configuration.
func DefaultWorkloadConfig() WorkloadConfig { return workload.DefaultConfig() }

// HighOverlapWorkloadConfig returns a broad-match-heavy configuration (85%
// of advertisers match every phrase), the high-overlap regime where shared
// winner determination beats independent scans on wall-clock.
func HighOverlapWorkloadConfig() WorkloadConfig { return workload.HighOverlapConfig() }

// GenerateWorkload builds a synthetic workload. It returns an error when
// the configuration is invalid (non-positive dimensions, inverted ranges).
func GenerateWorkload(cfg WorkloadConfig) (*Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return workload.Generate(cfg), nil
}

// An EngineOption adjusts an EngineConfig at construction. Options are
// applied in order over DefaultEngineConfig, so later options win; start
// from an explicit struct with WithConfig.
type EngineOption func(*EngineConfig)

// WithConfig replaces the whole configuration — the bridge for callers
// that assemble an EngineConfig struct (DefaultEngineConfig remains the
// canonical starting point). Options after it apply on top.
func WithConfig(cfg EngineConfig) EngineOption { return func(c *EngineConfig) { *c = cfg } }

// WithPricing selects the pricing rule (FirstPrice, GSP, VCG).
func WithPricing(rule PricingRule) EngineOption { return func(c *EngineConfig) { c.Pricing = rule } }

// WithBudgetPolicy selects naive vs throttled bidding (Section IV).
func WithBudgetPolicy(p BudgetPolicy) EngineOption { return func(c *EngineConfig) { c.Policy = p } }

// WithSharing selects shared-plan vs independent winner determination.
func WithSharing(m SharingMode) EngineOption { return func(c *EngineConfig) { c.Sharing = m } }

// WithReserve sets the per-click reserve price (0 disables it).
func WithReserve(price float64) EngineOption { return func(c *EngineConfig) { c.Reserve = price } }

// WithClickModel sets the delayed-click hazard and horizon.
func WithClickModel(hazard float64, horizon int) EngineOption {
	return func(c *EngineConfig) {
		c.ClickHazard = hazard
		c.ClickHorizon = horizon
	}
}

// NewEngine builds an engine (and its offline shared plan) for a workload,
// starting from DefaultEngineConfig and applying the options in order:
//
//	eng, err := sharedwd.NewEngine(w,
//	    sharedwd.WithPricing(sharedwd.VCG),
//	    sharedwd.WithBudgetPolicy(sharedwd.Throttled))
//
// It returns an error for invalid configurations or a per-phrase-quality
// workload (use NewSortEngine there).
func NewEngine(w *Workload, opts ...EngineOption) (*Engine, error) {
	cfg := core.DefaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	return core.New(w, cfg)
}

// NewSortEngine builds the Section III pipeline (shared merge-sort feeding
// the threshold algorithm) for a per-phrase-quality workload. Options as
// for NewEngine; it returns an error for invalid configurations or a
// global-quality workload.
func NewSortEngine(w *Workload, opts ...EngineOption) (*SortEngine, error) {
	cfg := core.DefaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	return core.NewSortEngine(w, cfg)
}

// serveConfig is the ServerOption target: the per-worker serving
// configuration plus the sharding knobs that only the sharded constructor
// consumes.
type serveConfig struct {
	srv        server.Config
	shards     int
	router     shard.Router
	net        netserve.Config
	bin        binproto.Config
	transports []Transport // nil means HTTP only (the historical default)
}

// serves reports whether the configuration enables transport t.
func (c *serveConfig) serves(t Transport) bool {
	if c.transports == nil {
		return t == TransportHTTP
	}
	for _, have := range c.transports {
		if have == t {
			return true
		}
	}
	return false
}

// A ServerOption adjusts the serving configuration at construction,
// applied in order over DefaultServerConfig. The same options configure
// NewServer and NewShardedServer; the sharding options (WithShards,
// WithShardRouter) are meaningful only to the latter.
type ServerOption func(*serveConfig)

// WithServerConfig replaces the whole per-worker serving configuration
// (round interval, batch threshold, queue depth, engine); options after it
// apply on top. Sharding options are untouched.
func WithServerConfig(cfg ServerConfig) ServerOption { return func(c *serveConfig) { c.srv = cfg } }

// WithRoundInterval sets the ticker period at which rounds close — the
// paper's §I latency/sharing tradeoff knob (see TuneRoundInterval).
func WithRoundInterval(d time.Duration) ServerOption {
	return func(c *serveConfig) { c.srv.RoundInterval = d }
}

// WithMaxBatch closes rounds early once n requests are pending (0 disables
// the size threshold).
func WithMaxBatch(n int) ServerOption { return func(c *serveConfig) { c.srv.MaxBatch = n } }

// WithQueueDepth bounds the admission queue — each shard gets its own
// queue of this depth; beyond it Submit sheds with ErrOverloaded.
func WithQueueDepth(n int) ServerOption { return func(c *serveConfig) { c.srv.QueueDepth = n } }

// WithBidWalk applies one step of the workload's bid random walk after
// every round (automated bidding programs running between rounds).
func WithBidWalk(scale float64) ServerOption {
	return func(c *serveConfig) { c.srv.BidWalkScale = scale }
}

// WithServerEngine applies engine options to the server's wrapped engine.
func WithServerEngine(opts ...EngineOption) ServerOption {
	return func(c *serveConfig) {
		for _, opt := range opts {
			opt(&c.srv.Engine)
		}
	}
}

// DefaultReplanConfig returns the conservative replanning configuration:
// drift checks every 50 rounds after a 200-round warmup, a 3× per-phrase
// rate ratio or 0.15 nat mean divergence trigger, and a 400-round post-swap
// cooldown.
func DefaultReplanConfig() ReplanConfig { return replan.DefaultConfig() }

// WithReplanner turns on online adaptive replanning for NewServer and
// NewShardedServer: each worker's round loop tracks the arrival rates it
// actually observes, and when they drift from the rates the live shared
// plan was optimized for, a fresh plan is compiled on a background
// goroutine and hot-swapped into the engine at a round boundary. Admission
// never pauses, and auction results are unchanged — all complete plans over
// the same queries are A-equivalent — only the per-round aggregation cost
// recovers. Requires the (default) SharedAggregation engine; under sharding
// each shard replans independently against its own partition's traffic.
// Metrics then reports Observed rates, PlanSwaps, ReplanBuilds,
// ReplanFailed, PlanSwapLatency and ReplanBuildLatency.
func WithReplanner(cfg ReplanConfig) ServerOption {
	return func(c *serveConfig) {
		rc := cfg
		c.srv.Replan = &rc
	}
}

// ObservedRates projects a Metrics' observed arrival-rate samples onto a
// dense per-phrase vector over a global phrase universe of size numPhrases
// (phrases with no sample are 0). It returns an error when the metrics
// carry no samples — the server was not built with WithReplanner, or no
// round has closed yet.
func ObservedRates(m Metrics, numPhrases int) ([]float64, error) {
	if len(m.Observed) == 0 {
		return nil, fmt.Errorf("sharedwd: metrics carry no observed rates (server not built with WithReplanner?)")
	}
	return m.ObservedRates(numPhrases), nil
}

// WithShards sets the engine-shard count for NewShardedServer (default:
// one shard per available CPU). NewServer rejects n > 1 — build a
// ShardedServer to scale out.
func WithShards(n int) ServerOption { return func(c *serveConfig) { c.shards = n } }

// WithShardRouter selects the phrase → shard assignment policy for
// NewShardedServer: HashShardRouter (default) for stable name-hash
// routing, FragmentShardRouter to co-locate phrases that share plan
// fragments.
func WithShardRouter(r ShardRouter) ServerOption { return func(c *serveConfig) { c.router = r } }

// Advertiser lifecycle event kinds (see Lifecycle).
const (
	LifecycleJoin    = workload.LifecycleJoin
	LifecycleLeave   = workload.LifecycleLeave
	LifecycleRefresh = workload.LifecycleRefresh
)

// DefaultPacerConfig returns the pacing controller defaults: a 1000-round
// horizon with a gentle multiplicative feedback gain. See
// internal/budget.DefaultPacerConfig.
func DefaultPacerConfig() PacerConfig { return budget.DefaultPacerConfig() }

// NewLifecycle validates and orders an advertiser lifecycle schedule over
// a universe of n advertisers. Events apply at the start of their round;
// advertisers whose first event is a join after round 0 start inactive.
func NewLifecycle(n int, events []LifecycleEvent) (*Lifecycle, error) {
	return workload.NewLifecycle(n, events)
}

// GenerateLifecycle builds a synthetic day-in-the-life schedule for the
// workload's advertisers: churn campaign windows plus periodic budget
// refreshes. See LifecycleConfig.
func GenerateLifecycle(w *Workload, cfg LifecycleConfig) (*Lifecycle, error) {
	return workload.GenerateLifecycle(w, cfg)
}

// WithPacing turns on the online budget-pacing controller: one shared
// Pacer over the fleet's budget authority adapts a per-advertiser throttle
// factor each round so budgets last the configured horizon. Works on both
// NewServer (a ledger is installed automatically) and NewShardedServer
// (the controller is shared across shards over the central ledger).
func WithPacing(cfg PacerConfig) ServerOption {
	return func(c *serveConfig) { c.srv.Pacing = &cfg }
}

// WithLifecycle attaches an advertiser lifecycle schedule: engines replay
// its join/leave events at round boundaries, and the pacing controller
// (when WithPacing is also given) applies its budget-refresh epochs.
func WithLifecycle(lc *Lifecycle) ServerOption {
	return func(c *serveConfig) { c.srv.Lifecycle = lc }
}

// NewServer builds the engine for the workload and starts the serving
// round loop:
//
//	srv, err := sharedwd.NewServer(w,
//	    sharedwd.WithRoundInterval(5*time.Millisecond),
//	    sharedwd.WithQueueDepth(4096))
//	defer srv.Close()
//	res, err := srv.Submit(ctx, "hiking boots")
//
// The server takes ownership of the workload; do not mutate or step it
// while the server runs. Close resolves in-flight requests, drains
// outstanding clicks, and stops every goroutine the server started.
// NewServer is the single-engine constructor; it returns an error if
// WithShards(n > 1) was given (use NewShardedServer).
func NewServer(w *Workload, opts ...ServerOption) (*Server, error) {
	cfg := applyServerOptions(opts)
	if cfg.shards > 1 {
		return nil, fmt.Errorf("sharedwd: NewServer is single-engine; use NewShardedServer for %d shards", cfg.shards)
	}
	return server.New(w, cfg.srv)
}

// NewShardedServer partitions the workload's phrase universe across engine
// shards — one admission queue + round loop + engine per shard, advertiser
// budgets shared through a central atomic ledger — and starts serving:
//
//	srv, err := sharedwd.NewShardedServer(w,
//	    sharedwd.WithShards(4),
//	    sharedwd.WithShardRouter(sharedwd.FragmentShardRouter{}),
//	    sharedwd.WithRoundInterval(5*time.Millisecond))
//	defer srv.Close()
//	res, err := srv.Submit(ctx, "hiking boots")
//
// Without WithShards it uses one shard per available CPU. Submit, Metrics,
// and Close mirror Server's; results additionally carry the serving shard,
// and a shard's refusals (overloaded, closed) wrap shard + phrase context
// as *QueryError. The server takes ownership of the workload.
func NewShardedServer(w *Workload, opts ...ServerOption) (*ShardedServer, error) {
	cfg := applyServerOptions(opts)
	scfg := shard.DefaultConfig()
	scfg.Worker = cfg.srv
	if cfg.shards > 0 {
		scfg.Shards = cfg.shards
	}
	scfg.Router = cfg.router
	return shard.New(w, scfg)
}

func applyServerOptions(opts []ServerOption) serveConfig {
	cfg := serveConfig{srv: server.DefaultConfig()}
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// Network serving tier (see internal/netserve, internal/binproto).
type (
	// NetServerConfig tunes the HTTP tier (listen address, timeouts,
	// body bound, rate limit, live-feed queue depth).
	NetServerConfig = netserve.Config
	// BinaryServerConfig tunes the binary tier (listen address, frame and
	// in-flight bounds, timeout clamp).
	BinaryServerConfig = binproto.Config
)

// Transport selects which network edges a NetServer serves.
type Transport int

const (
	// TransportHTTP is the HTTP/JSON tier: POST /v1/query and
	// /v1/query/batch submit queries, GET /v1/stats and GET /v1/metrics
	// expose the merged fleet Metrics (JSON and Prometheus text), and
	// GET /v1/live is a WebSocket pushing per-round summaries.
	TransportHTTP Transport = iota
	// TransportBinary is the length-prefixed binary protocol with
	// connection multiplexing — the high-throughput edge (see
	// internal/binproto and NewBinaryClient).
	TransportBinary
)

// NetServer is the network front end over a sharded round server: one
// fleet (ShardedServer + central budget ledger) behind up to two
// transports — the HTTP/JSON tier and the binary tier — serving identical
// results under one error taxonomy. Build with NewNetServer; Addr and
// BinaryAddr report the bound edges ("" for one not serving); Shutdown
// drains every edge and then the fleet.
type NetServer struct {
	http    *netserve.Server // nil unless TransportHTTP
	binary  *binproto.Server // nil unless TransportBinary
	backend server.Backend
	hub     *netserve.Hub
}

// Addr returns the HTTP tier's bound listen address, or "" when the HTTP
// transport is not serving.
func (ns *NetServer) Addr() string {
	if ns.http == nil {
		return ""
	}
	return ns.http.Addr()
}

// BinaryAddr returns the binary tier's bound listen address, or "" when
// the binary transport is not serving.
func (ns *NetServer) BinaryAddr() string {
	if ns.binary == nil {
		return ""
	}
	return ns.binary.Addr()
}

// Hub returns the live round-feed hub (for tests and embedding).
func (ns *NetServer) Hub() *netserve.Hub { return ns.hub }

// Err returns the HTTP tier's terminal serve error, if any.
func (ns *NetServer) Err() error {
	if ns.http == nil {
		return nil
	}
	return ns.http.Err()
}

// Shutdown drains the whole front end: both edges stop accepting, every
// admitted request — HTTP in-flight handlers and binary in-flight frames
// alike — is answered through the normal worker drain (bounded by ctx),
// live subscribers get a going-away close frame, and finally the fleet
// itself drains and settles its budgets. Safe to call once.
func (ns *NetServer) Shutdown(ctx context.Context) error {
	// Drain the binary edge first, without closing the shared backend —
	// its in-flight frames need the workers still serving.
	var err error
	if ns.binary != nil {
		err = ns.binary.Drain(ctx)
	}
	if ns.http != nil {
		// The HTTP tier's Shutdown closes the hub and then the backend.
		if herr := ns.http.Shutdown(ctx); err == nil {
			err = herr
		}
	} else {
		ns.hub.Close()
		ns.backend.Close()
	}
	return err
}

// Close tears the front end down without waiting for in-flight requests.
// Use Shutdown for a graceful drain.
func (ns *NetServer) Close() error {
	var err error
	if ns.binary != nil {
		err = ns.binary.Close()
	}
	if ns.http != nil {
		if herr := ns.http.Close(); err == nil {
			err = herr
		}
	} else {
		ns.hub.Close()
		ns.backend.Close()
	}
	return err
}

// WithListenAddr sets the HTTP tier's listen address for NewNetServer
// (default 127.0.0.1:0 — a random loopback port; use ":8080" to serve
// externally). Ignored by NewServer and NewShardedServer.
func WithListenAddr(addr string) ServerOption {
	return func(c *serveConfig) { c.net.Addr = addr }
}

// WithTransport selects which network edges NewNetServer serves — any of
// TransportHTTP and TransportBinary, in any combination. Without it the
// server speaks HTTP only (the historical default); WithBinaryAddr
// implies adding TransportBinary without restating the HTTP choice.
func WithTransport(transports ...Transport) ServerOption {
	return func(c *serveConfig) {
		c.transports = append([]Transport(nil), transports...)
	}
}

// WithBinaryAddr sets the binary tier's listen address for NewNetServer
// (default 127.0.0.1:0) and enables TransportBinary alongside whatever
// transports are already selected. Ignored by NewServer and
// NewShardedServer.
func WithBinaryAddr(addr string) ServerOption {
	return func(c *serveConfig) {
		c.bin.Addr = addr
		if !c.serves(TransportBinary) {
			if c.transports == nil {
				c.transports = []Transport{TransportHTTP}
			}
			c.transports = append(c.transports, TransportBinary)
		}
	}
}

// WithBinaryConfig replaces the whole binary-tier configuration for
// NewNetServer; WithBinaryAddr after it applies on top. It does not by
// itself enable the binary transport — combine with WithTransport or
// WithBinaryAddr.
func WithBinaryConfig(cfg BinaryServerConfig) ServerOption {
	return func(c *serveConfig) { c.bin = cfg }
}

// WithRateLimit enables the network tier's per-client token bucket at rps
// requests per second with bursts of burst (burst ≤ 0 defaults to 2×rps).
// Rate-limited requests get 429 before reaching the admission queue.
// Ignored by NewServer and NewShardedServer.
func WithRateLimit(rps float64, burst int) ServerOption {
	return func(c *serveConfig) {
		c.net.RateLimit = rps
		c.net.RateBurst = burst
	}
}

// WithNetConfig replaces the whole HTTP-tier configuration for
// NewNetServer.
//
// Configuration precedence, for every whole-config/per-field option pair
// on this facade (WithServerConfig vs the round knobs, WithNetConfig vs
// WithListenAddr/WithRateLimit, WithBinaryConfig vs WithBinaryAddr):
// options apply strictly in argument order over the defaults, and later
// options win. A whole-config option replaces its entire struct — field
// options given before it are lost; field options given after it apply on
// top. Transport selection (WithTransport, WithBinaryAddr's implied
// enable) is tracked separately and survives whole-config replacement.
func WithNetConfig(cfg NetServerConfig) ServerOption {
	return func(c *serveConfig) { c.net = cfg }
}

// NewNetServer builds a ShardedServer for the workload, wires its round
// loops into the live feed, and starts the selected network transports
// listening:
//
//	ns, err := sharedwd.NewNetServer(w,
//	    sharedwd.WithListenAddr(":8080"),
//	    sharedwd.WithBinaryAddr(":8081"),
//	    sharedwd.WithRateLimit(1000, 2000),
//	    sharedwd.WithShards(4))
//	defer ns.Shutdown(context.Background())
//	// POST http://host:8080/v1/query  {"query": "hiking boots"}
//	// or sharedwd.NewBinaryClient(ns.BinaryAddr())
//
// All NewShardedServer options apply; WithTransport and WithBinaryAddr
// choose the edges (HTTP only without either). Every edge serves the same
// fleet — identical results, one error taxonomy, shared budget ledger.
// The tier is serving when NewNetServer returns; Addr and BinaryAddr
// report the bound addresses. Shutdown drains gracefully — listeners stop
// accepting, every admitted request is answered, live subscribers get a
// close frame, then the fleet drains. See WithNetConfig for option
// precedence.
func NewNetServer(w *Workload, opts ...ServerOption) (*NetServer, error) {
	cfg := applyServerOptions(opts)
	if cfg.transports != nil && !cfg.serves(TransportHTTP) && !cfg.serves(TransportBinary) {
		return nil, fmt.Errorf("sharedwd: NewNetServer with no transports")
	}
	// The hub must exist before the workers start: each round loop's
	// summary hook is fixed at worker construction.
	hub := netserve.NewHubFor(cfg.net)
	cfg.srv.OnRound = hub.RoundHook()
	scfg := shard.DefaultConfig()
	scfg.Worker = cfg.srv
	if cfg.shards > 0 {
		scfg.Shards = cfg.shards
	}
	scfg.Router = cfg.router
	backend, err := shard.New(w, scfg)
	if err != nil {
		return nil, err
	}
	ns := &NetServer{backend: backend, hub: hub}
	if cfg.serves(TransportHTTP) {
		ns.http = netserve.New(backend, hub, cfg.net)
		if err := ns.http.Start(); err != nil {
			hub.Close()
			backend.Close()
			return nil, fmt.Errorf("sharedwd: net server listen: %w", err)
		}
	}
	if cfg.serves(TransportBinary) {
		ns.binary = binproto.New(backend, cfg.bin)
		if err := ns.binary.Start(); err != nil {
			if ns.http != nil {
				ns.http.Close() // closes hub and backend
			} else {
				hub.Close()
				backend.Close()
			}
			return nil, fmt.Errorf("sharedwd: binary server listen: %w", err)
		}
	}
	return ns, nil
}

// TuneRoundInterval picks the longest round length whose simulated median
// query latency stays within the paper's 2.2 s user-tolerance threshold,
// by replaying the §I batching model (internal/batching) against the
// workload's shared plan at the given per-phrase Poisson arrival rates.
func TuneRoundInterval(w *Workload, arrivalsPerSecond []float64, wdSecondsPerOp float64, candidates []time.Duration) (time.Duration, error) {
	return server.TuneRoundInterval(w, arrivalsPerSecond, wdSecondsPerOp, candidates)
}

// NewMatcher indexes bid phrases for two-stage query matching.
func NewMatcher(phrases []string) *Matcher { return workload.NewMatcher(phrases) }

// RecordTrace captures rounds of the workload into a replayable trace.
func RecordTrace(w *Workload, rounds int, walkScale float64) *Trace {
	return workload.Record(w, rounds, walkScale)
}

// NewQueryStream builds a raw-query generator over the workload's phrases.
// It returns an error unless junkRate is in [0, 1).
func NewQueryStream(w *Workload, junkRate float64, seed int64) (*QueryStream, error) {
	if junkRate < 0 || junkRate >= 1 {
		return nil, fmt.Errorf("sharedwd: junk rate %v outside [0,1)", junkRate)
	}
	return workload.NewQueryStream(w, junkRate, seed), nil
}

// RandomCoinFlipInstance reproduces the Figure-4 instance construction.
func RandomCoinFlipInstance(rng *rand.Rand, numVars, numQueries int, rate float64) *AggInstance {
	return plan.RandomCoinFlipInstance(rng, numVars, numQueries, rate)
}

// RunGamingScenario reproduces the Section-IV gaming demonstration.
func RunGamingScenario(seed int64, rounds int, policy BudgetPolicy) (core.GamingResult, error) {
	return core.RunGamingScenario(seed, rounds, policy)
}

// RunGamingExperiment averages the gaming scenario over reps seeds.
func RunGamingExperiment(seed int64, rounds, reps int, policy BudgetPolicy) (core.GamingResult, error) {
	return core.RunGamingExperiment(seed, rounds, reps, policy)
}
