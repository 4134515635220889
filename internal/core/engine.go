// Package core is the shared winner-determination engine — the system the
// paper's techniques compose into. Per round it:
//
//  1. collects the clicks arriving from earlier rounds and charges budgets
//     (never above an advertiser's daily budget);
//  2. computes the bid of each advertiser taking part in the round's
//     auctions — either the stated bid (naive policy) or the Section-IV
//     throttled bid b̂ that accounts for outstanding ads awaiting clicks;
//  3. resolves every occurring bid phrase's auction by executing the shared
//     top-(k+1) aggregation plan built offline by the Section-II heuristic,
//     or an unshared per-auction scan for the baseline;
//  4. prices the winners (first-price / GSP / laddered VCG) and displays
//     their ads, registering them with the delayed-click simulator.
//
// The engine's counters expose exactly the quantities the paper's
// evaluation cares about: aggregation nodes materialized per round (the
// shared-plan cost model), revenue, and clicks that had to be forgiven
// because a naive policy let an advertiser win more than its budget could
// pay for (the Section-IV gaming loss).
package core

import (
	"fmt"
	"math/bits"

	"sharedwd/internal/bitset"
	"sharedwd/internal/budget"
	"sharedwd/internal/plan"
	"sharedwd/internal/pricing"
	"sharedwd/internal/sharedagg"
	"sharedwd/internal/topk"
	"sharedwd/internal/workload"
)

// BudgetPolicy selects how remaining budgets influence bidding.
type BudgetPolicy int

// Budget policies.
const (
	// Naive ignores outstanding ads: an advertiser bids min(b_i, β_i) as
	// long as any budget remains — the gameable behaviour of Section IV.
	Naive BudgetPolicy = iota
	// Throttled uses the paper's b̂_i = E[min(b_i, max(0, β_i − S)/m_i)].
	Throttled
)

func (p BudgetPolicy) String() string {
	if p == Throttled {
		return "throttled"
	}
	return "naive"
}

// SharingMode selects how winner determination is computed across the
// round's simultaneous auctions.
type SharingMode int

// Sharing modes.
const (
	// SharedAggregation executes the Section-II shared top-k plan.
	SharedAggregation SharingMode = iota
	// Independent scans each occurring phrase's advertisers separately.
	Independent
)

func (m SharingMode) String() string {
	if m == Independent {
		return "independent"
	}
	return "shared"
}

// BudgetLedger is the engine's hook for external budget authority. When a
// Config carries one, remaining-budget reads and click charges go through
// it instead of the engine-private spend table, so several engines (the
// shards of a sharded server) can share one advertiser budget pool with
// exact global accounting. budget.Ledger implements it.
//
// Implementations must be safe for concurrent use: each engine calls from
// its own goroutine, but the ledger is shared across engines.
type BudgetLedger interface {
	// Remaining returns the advertiser's current remaining budget.
	Remaining(advertiser int) float64
	// TryCharge atomically deducts price from the advertiser's remaining
	// budget, returning false (and charging nothing) if the budget does not
	// cover it.
	TryCharge(advertiser int, price float64) bool
}

// Config parameterizes the engine.
type Config struct {
	Pricing pricing.Rule
	Policy  BudgetPolicy
	Sharing SharingMode
	// Workers may be 0 or 1; New rejects any other value.
	//
	// Deprecated: an engine runs on one goroutine; use shards for more cores.
	Workers int
	// IncrementalCache is ignored: every shared round is one full plan run.
	//
	// Deprecated: kept only because benchmark/ still sets and reads it;
	// deleted with the other benchmark shims (ROADMAP item 1(f)).
	IncrementalCache bool
	// ClickHazard and ClickHorizon parameterize the delayed-click model.
	ClickHazard  float64
	ClickHorizon int
	// ThrottleEnumLimit bounds the outstanding-ad count for exact subset
	// enumeration; beyond it the currency-grid DP is used.
	ThrottleEnumLimit int
	// ThrottleUnit is the DP currency grid (e.g. 0.01 = cents).
	ThrottleUnit float64
	// Reserve is the per-click reserve price: bidders below it do not
	// participate, and no winner pays less. Zero disables it.
	Reserve float64
	// Ledger, when non-nil, is the shared budget authority consulted for
	// remaining budgets and charged for clicks in place of the
	// engine-private spend table. The engine still accumulates its local
	// Spent view (this engine's share of each advertiser's spend), but the
	// admit/forgive decision for every click is the ledger's. Used by the
	// sharded server to keep Section IV accounting exact across shards.
	Ledger BudgetLedger
	// ClickOutcome, when non-nil, replaces the click simulator's random
	// draws with a deterministic outcome function (see
	// workload.OutcomeFunc). Sharded and single-engine runs given the same
	// pure function see identical click fates, which is what the
	// equivalence property tests rely on.
	ClickOutcome workload.OutcomeFunc
	// Pacer, when non-nil, is the shared online pacing controller: at the
	// top of every Step the engine syncs it to the round (idempotent across
	// the shards sharing it), and each advertiser's stated bid is scaled by
	// its published pacing factor before the budget policy runs — the
	// throttle knob that makes budgets exhaust smoothly over the configured
	// horizon instead of front-loading. See budget.Pacer.
	Pacer *budget.Pacer
	// Lifecycle, when non-nil, is the advertiser lifecycle schedule the
	// engine consumes at round boundaries: join/leave events toggle
	// participation (an inactive advertiser places no bids; its outstanding
	// ads still settle and charge). Budget-refresh events are not applied
	// here — they belong to the Pacer, which holds the fleet's single
	// budget authority. Every shard consumes the same schedule
	// independently, so active sets agree with no coordination.
	Lifecycle *workload.Lifecycle
}

// DefaultConfig returns a GSP, throttled, shared configuration.
func DefaultConfig() Config {
	return Config{
		Pricing:           pricing.GSP,
		Policy:            Throttled,
		Sharing:           SharedAggregation,
		ClickHazard:       0.3,
		ClickHorizon:      20,
		ThrottleEnumLimit: 16,
		ThrottleUnit:      0.01,
	}
}

// Engine resolves rounds of simultaneous sponsored-search auctions over a
// fixed workload.
//
// Thread safety: an Engine is single-threaded by contract and does all of a
// round's work on the calling goroutine. Step, Drain, Stats, Spent, and
// Close must all be called from one goroutine; more cores serve more shards
// (package shard), not one engine. A RoundReport's Auctions field views
// scratch buffers that the next Step overwrites; callers keeping results
// across rounds must copy them. The server package wraps an Engine in a
// round loop to provide a concurrent front end.
type Engine struct {
	cfg Config
	w   *workload.Workload

	// interest[q] lists phrase q's interested advertisers in ascending
	// order: w.Interests[q] unpacked once, for the per-phrase scans
	// (Independent engines only; nil otherwise).
	interest [][]int32

	inst *plan.Instance

	// runner executes the flat-compiled instruction stream over dense entry
	// slabs — the shared-mode path. It holds the engine's only reference to
	// the Program; the Plan it was compiled from is not kept.
	runner *plan.Runner

	clicks *workload.ClickSim
	// out is the round's outstanding ads bucketed by advertiser, filled
	// once per Step before leaf scoring (Throttled engines only; nil
	// otherwise).
	out   *workload.OutstandingBuckets
	spent []float64 // realized payments per advertiser
	round int

	// active[i] is advertiser i's lifecycle participation flag; lifeCursor
	// tracks schedule consumption and lifeFn is the pinned event-apply
	// closure (built once so round boundaries never allocate).
	active     []bool
	lifeCursor int
	lifeFn     func(workload.LifecycleEvent)

	scr  roundScratch
	tscr throttleScratch

	stats Stats
}

// roundScratch holds every per-round buffer Step reuses, so steady-state
// rounds allocate nothing. RoundReports returned by Step view into these
// buffers and are valid until the next Step.
type roundScratch struct {
	occ []bool
	// part is the round's participants: the union of the occurring phrases'
	// interest sets.
	part     bitset.Set
	roundBid []float64
	// score[i] is the round's effective score b̂_i·c_i, computed once per
	// round; both sharing modes read leaf values from this one slab so they
	// score bit-identically.
	score    []float64
	ranked   []pricing.Ranked
	parts    []pricing.Ranked
	prices   []float64
	auctions map[int][]SlotResult
	slots    [][]SlotResult // per-phrase slot buffers backing auctions
	// indep is the Independent-mode run slab, one stride-(k+1) segment per
	// phrase holding indepLen[q] entries — the same layout and the same scan
	// kernel the compiled runner uses, so the two modes differ in plan only.
	indep    []topk.Entry
	indepLen []int32
}

// throttleScratch is the buffers for the throttled bid computation: the
// advertiser's outstanding ads in the shape budget wants them, and the DP
// grid.
type throttleScratch struct {
	ads []budget.OutstandingAd
	dp  budget.ThrottleDP
}

// Stats accumulates engine-lifetime counters. The JSON tags are the stable
// wire schema shared by the network tier's /v1/stats endpoint and the
// WebSocket round feed; renaming one is a breaking API change.
type Stats struct {
	Rounds           int `json:"rounds"`
	AuctionsResolved int `json:"auctions_resolved"`
	// NodesMaterialized counts top-k aggregation operations performed (the
	// Section-II cost metric). In shared mode that is Σ plan.Program.Span
	// over each round's cone: the plan nodes the round needs, except that a
	// small shared node the compiler fuses into several consumers counts once
	// in each. For Independent mode it counts the per-scan pushes
	// equivalent: one per advertiser scanned beyond the first per auction,
	// to keep the two modes comparable.
	NodesMaterialized int `json:"nodes_materialized"`
	// NodesCached is always 0 and is not part of the wire schema.
	//
	// Deprecated: kept only because benchmark/ still reads it; deleted with
	// the other benchmark shims (ROADMAP item 1(f)).
	NodesCached   int     `json:"-"`
	Revenue       float64 `json:"revenue"`
	ClicksCharged int     `json:"clicks_charged"`
	// ClicksForgiven counts clicks whose price exceeded the advertiser's
	// remaining budget and could not be charged — the paper's lost revenue.
	ClicksForgiven int     `json:"clicks_forgiven"`
	ForgivenValue  float64 `json:"forgiven_value"`
	AdsDisplayed   int     `json:"ads_displayed"`
}

// Add returns the field-wise sum of two stat sets — the aggregation used to
// roll per-shard engine counters up into one fleet-wide view.
func (s Stats) Add(o Stats) Stats {
	s.Rounds += o.Rounds
	s.AuctionsResolved += o.AuctionsResolved
	s.NodesMaterialized += o.NodesMaterialized
	s.Revenue += o.Revenue
	s.ClicksCharged += o.ClicksCharged
	s.ClicksForgiven += o.ClicksForgiven
	s.ForgivenValue += o.ForgivenValue
	s.AdsDisplayed += o.AdsDisplayed
	return s
}

// New builds an engine (and, in shared mode, the offline aggregation plan)
// for the workload.
func New(w *workload.Workload, cfg Config) (*Engine, error) {
	if w.Quality != nil {
		return nil, fmt.Errorf("core: per-phrase quality workloads need the shared-sort pipeline; Engine uses the shared-aggregation regime (global c_i)")
	}
	if cfg.ClickHazard <= 0 || cfg.ClickHazard > 1 || cfg.ClickHorizon < 1 {
		return nil, fmt.Errorf("core: invalid click model (hazard %v, horizon %d)", cfg.ClickHazard, cfg.ClickHorizon)
	}
	if cfg.Workers != 0 && cfg.Workers != 1 {
		return nil, fmt.Errorf("core: Workers = %d; an engine runs on one goroutine, use shards for more cores", cfg.Workers)
	}
	if cfg.ThrottleUnit <= 0 {
		return nil, fmt.Errorf("core: non-positive throttle unit %v", cfg.ThrottleUnit)
	}
	if cfg.Lifecycle != nil && cfg.Lifecycle.NumAdvertisers() != len(w.Advertisers) {
		return nil, fmt.Errorf("core: lifecycle over %d advertisers, workload has %d", cfg.Lifecycle.NumAdvertisers(), len(w.Advertisers))
	}
	if cfg.Pacer != nil && cfg.Pacer.N() != len(w.Advertisers) {
		return nil, fmt.Errorf("core: pacer over %d advertisers, workload has %d", cfg.Pacer.N(), len(w.Advertisers))
	}
	e := &Engine{
		cfg:    cfg,
		w:      w,
		clicks: workload.NewClickSim(w.Rng(), cfg.ClickHazard, cfg.ClickHorizon),
		spent:  make([]float64, len(w.Advertisers)),
		active: make([]bool, len(w.Advertisers)),
	}
	for i := range e.active {
		e.active[i] = cfg.Lifecycle == nil || cfg.Lifecycle.InitiallyActive(i)
	}
	e.lifeFn = func(ev workload.LifecycleEvent) {
		switch ev.Kind {
		case workload.LifecycleJoin:
			e.active[ev.Advertiser] = true
		case workload.LifecycleLeave:
			e.active[ev.Advertiser] = false
		}
	}
	if cfg.ClickOutcome != nil {
		e.clicks.SetOutcome(cfg.ClickOutcome)
	}
	if cfg.Policy == Throttled {
		e.out = new(workload.OutstandingBuckets)
	}
	e.scr.part = bitset.New(len(w.Advertisers))
	e.scr.roundBid = make([]float64, len(w.Advertisers))
	e.scr.score = make([]float64, len(w.Advertisers))
	e.scr.auctions = make(map[int][]SlotResult, len(w.Interests))
	e.scr.slots = make([][]SlotResult, len(w.Interests))
	k := len(w.SlotFactors)
	if cfg.Sharing == SharedAggregation {
		queries := make([]plan.Query, len(w.Interests))
		for q := range w.Interests {
			queries[q] = plan.Query{Vars: w.Interests[q], Rate: w.Rates[q]}
		}
		inst, err := plan.NewInstance(len(w.Advertisers), queries)
		if err != nil {
			return nil, fmt.Errorf("core: building plan instance: %w", err)
		}
		e.inst = inst
		_, prog, err := sharedagg.BuildCompiled(inst)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		e.runner = plan.NewRunner(prog, k+1)
	} else {
		e.scr.indep = make([]topk.Entry, len(w.Interests)*(k+1))
		e.scr.indepLen = make([]int32, len(w.Interests))
		e.interest = make([][]int32, len(w.Interests))
		for q, set := range w.Interests {
			for _, i := range set.Indices() {
				e.interest[q] = append(e.interest[q], int32(i))
			}
		}
	}
	return e, nil
}

// PlanInstance returns the planning instance the engine's live shared plan
// was built from (nil in Independent mode). The online replanner re-poses
// it under observed rates; callers must treat it as immutable.
func (e *Engine) PlanInstance() *plan.Instance { return e.inst }

// InstallPlan hot-swaps the engine's shared aggregation plan for a freshly
// compiled one over the same queries and universe — the replanner's swap
// step. Because all complete plans for the same queries are A-equivalent
// (Lemma 1), swapping changes only the cost of winner determination, never
// its results; the swap is therefore safe at any round boundary. It installs
// a fresh Runner over the new program. Must be called from the engine's
// owning goroutine, between Steps — the server's round loop does exactly
// that.
func (e *Engine) InstallPlan(inst *plan.Instance, prog *plan.Program) error {
	if e.cfg.Sharing != SharedAggregation {
		return fmt.Errorf("core: InstallPlan on a %v engine", e.cfg.Sharing)
	}
	if inst == nil || prog == nil {
		return fmt.Errorf("core: InstallPlan with nil instance or program")
	}
	if inst.NumVars != len(e.w.Advertisers) {
		return fmt.Errorf("core: plan instance has %d variables, engine %d advertisers", inst.NumVars, len(e.w.Advertisers))
	}
	if len(inst.Queries) != len(e.w.Interests) {
		return fmt.Errorf("core: plan instance has %d queries, engine %d phrases", len(inst.Queries), len(e.w.Interests))
	}
	k := len(e.w.SlotFactors)
	e.inst = inst
	e.runner = plan.NewRunner(prog, k+1)
	return nil
}

// Close is an idempotent no-op: an engine owns no goroutines or other
// resources to release. It stays so that callers written against a closable
// engine keep compiling.
func (e *Engine) Close() {}

// Stats returns the accumulated counters.
func (e *Engine) Stats() Stats { return e.stats }

// Round returns the number of the next round to be stepped.
func (e *Engine) Round() int { return e.round }

// Spent returns how much advertiser i has paid so far through this engine.
// With a shared ledger this is the engine's share of the global spend; the
// ledger's Spent is the cross-shard total.
func (e *Engine) Spent(i int) float64 { return e.spent[i] }

// Remaining returns advertiser i's remaining budget — from the shared
// ledger when one is configured, else from this engine's own accounting.
func (e *Engine) Remaining(i int) float64 {
	if e.cfg.Ledger != nil {
		return e.cfg.Ledger.Remaining(i)
	}
	return e.w.Advertisers[i].Budget - e.spent[i]
}

// AdvertiserReport summarizes one advertiser's day so far.
type AdvertiserReport struct {
	ID        int
	Bid       float64
	Budget    float64
	Spent     float64
	Remaining float64
	// Outstanding is the number of displayed ads still awaiting clicks.
	Outstanding int
	// OutstandingExposure is the total price of those ads — the worst-case
	// debt the throttled bid accounts for (the paper's ω).
	OutstandingExposure float64
}

// Report returns advertiser i's current accounting snapshot.
func (e *Engine) Report(i int) AdvertiserReport {
	a := e.w.Advertisers[i]
	prices, _ := e.clicks.Outstanding(i, e.round)
	exposure := 0.0
	for _, p := range prices {
		exposure += p
	}
	return AdvertiserReport{
		ID:                  i,
		Bid:                 a.Bid,
		Budget:              a.Budget,
		Spent:               e.spent[i],
		Remaining:           e.Remaining(i),
		Outstanding:         len(prices),
		OutstandingExposure: exposure,
	}
}

// SlotResult is one filled slot in one auction. The JSON tags are the
// stable wire schema the network tier's query responses use.
type SlotResult struct {
	Slot       int     `json:"slot"`
	Advertiser int     `json:"advertiser"`
	PricePaid  float64 `json:"price_paid"` // per-click price
}

// RoundReport is the outcome of one engine step. Its Auctions map and
// Clicks slice view engine-owned scratch buffers that the next Step
// overwrites; callers that retain a report across rounds must copy what
// they keep.
type RoundReport struct {
	Round int
	// Auctions maps occurring phrase → its filled slots.
	Auctions map[int][]SlotResult
	// Clicks that arrived this round (from earlier displays).
	Clicks []workload.Click
	// Materialized counts the aggregation operations performed this round
	// (see Stats.NodesMaterialized).
	Materialized int
}

// Step advances one round: occurring[q] says whether phrase q's auction
// runs. Passing nil samples occurrence from the workload's search rates.
func (e *Engine) Step(occurring []bool) RoundReport {
	if occurring == nil {
		e.scr.occ = e.w.SampleRoundInto(e.scr.occ)
		occurring = e.scr.occ
	}
	if len(occurring) != len(e.w.Interests) {
		panic(fmt.Sprintf("core: %d occurrence flags for %d phrases", len(occurring), len(e.w.Interests)))
	}
	clear(e.scr.auctions)
	rep := RoundReport{Round: e.round, Auctions: e.scr.auctions}

	// 0. Round-boundary control plane: sync the shared pacing controller
	// (first engine to reach this round steps it from spend settled through
	// the previous round — before any of this round's charges land) and
	// fold pending lifecycle events into the participation flags.
	if e.cfg.Pacer != nil {
		e.cfg.Pacer.SyncRound(e.round)
	}
	if e.cfg.Lifecycle != nil {
		e.lifeCursor = e.cfg.Lifecycle.Apply(e.lifeCursor, e.round, e.lifeFn)
	}

	// 1. Deliver clicks from earlier rounds and charge budgets. With a
	// shared ledger the admit/forgive decision is its atomic TryCharge
	// (reserve and settle in one CAS); e.spent then tracks this engine's
	// share of the global spend.
	rep.Clicks = e.clicks.Advance(e.round)
	for _, c := range rep.Clicks {
		var charged bool
		if e.cfg.Ledger != nil {
			charged = e.cfg.Ledger.TryCharge(c.Advertiser, c.Price)
		} else {
			charged = e.spent[c.Advertiser]+c.Price <= e.w.Advertisers[c.Advertiser].Budget+1e-9
		}
		if charged {
			e.spent[c.Advertiser] += c.Price
			e.stats.Revenue += c.Price
			e.stats.ClicksCharged++
		} else {
			e.stats.ClicksForgiven++
			e.stats.ForgivenValue += c.Price
		}
	}

	// 2. The participants' round bids under the budget policy.
	e.scoreParticipants(occurring)

	// 3. Winner determination across the occurring auctions: one path per
	// sharing mode.
	k := len(e.w.SlotFactors)
	switch e.cfg.Sharing {
	case SharedAggregation:
		rep.Materialized = e.runner.Run(e.scr.score, occurring)
	case Independent:
		rep.Materialized = e.scanIndependent(occurring)
	}

	// 4. Assign, price, display — in phrase order, so the click
	// simulator's random stream is consumed deterministically. Every
	// occurring auction is resolved (possibly with an empty ranking when
	// no participant has a positive score).
	for q := 0; q < len(occurring); q++ {
		if !occurring[q] {
			continue
		}
		e.stats.AuctionsResolved++
		var run []topk.Entry
		if e.cfg.Sharing == Independent {
			run = e.scr.indep[q*(k+1):][:e.scr.indepLen[q]]
		} else {
			run = e.runner.QueryRun(q)
		}
		// Pricing sees each entry's advertiser with its round bid and quality.
		ranked := e.scr.ranked[:0]
		for _, entry := range run {
			ranked = append(ranked, pricing.Ranked{ID: entry.ID, Bid: e.scr.roundBid[entry.ID], Quality: e.w.Advertisers[entry.ID].Quality})
		}
		e.scr.ranked = ranked
		parts, prices := pricing.AppendPricesWithReserve(e.scr.parts[:0], e.scr.prices[:0], e.cfg.Pricing, ranked, e.w.SlotFactors, e.cfg.Reserve)
		if e.cfg.Reserve > 0 {
			e.scr.parts = parts // retain grown capacity across auctions
		}
		e.scr.prices = prices
		slots := e.scr.slots[q][:0]
		for j := 0; j < len(prices) && j < k; j++ {
			adv := parts[j]
			if adv.Bid <= 0 {
				break
			}
			ctr := adv.Quality * e.w.SlotFactors[j]
			if ctr > 1 {
				ctr = 1
			}
			e.clicks.Display(adv.ID, prices[j], ctr, e.round)
			e.stats.AdsDisplayed++
			slots = append(slots, SlotResult{Slot: j, Advertiser: adv.ID, PricePaid: prices[j]})
		}
		e.scr.slots[q] = slots
		if len(slots) > 0 {
			rep.Auctions[q] = slots
		}
	}

	e.stats.NodesMaterialized += rep.Materialized
	e.stats.Rounds++
	e.round++
	return rep
}

// scoreParticipants computes the round bid and score[i] = b̂_i·c_i of every
// advertiser in an occurring auction (all others score 0). Both sharing
// modes read this one slab, so they score bit-identically.
func (e *Engine) scoreParticipants(occurring []bool) {
	part := e.scr.part
	part.Clear()
	auctions := 0 // M: the round's occurring auctions, an upper bound on every m_i
	for q, occ := range occurring {
		if occ {
			auctions++
			part.UnionInPlace(e.w.Interests[q])
		}
	}
	roundBid := e.scr.roundBid
	score := e.scr.score
	clear(roundBid)
	clear(score)
	if e.out != nil {
		// Section IV needs every participating advertiser's outstanding
		// ads: bucket the pending list once, O(pending + advertisers),
		// rather than scan all of it per advertiser.
		e.clicks.BucketOutstanding(e.out, len(e.w.Advertisers), e.round)
	}
	active, advs, spent := e.active, e.w.Advertisers, e.spent
	pacer, ledger, throttled := e.cfg.Pacer, e.cfg.Ledger, e.out != nil
	for j, word := range part.Words() {
		for ; word != 0; word &= word - 1 {
			i := j<<6 | bits.TrailingZeros64(word)
			if !active[i] {
				continue
			}
			// Section IV computes b̂ from the paced bid.
			a := &advs[i]
			bid := a.Bid
			if pacer != nil {
				bid *= pacer.Factor(i)
			}
			if bid <= 0 {
				continue
			}
			remaining := a.Budget - spent[i]
			if ledger != nil {
				remaining = ledger.Remaining(i)
			}
			if remaining <= 0 {
				continue
			}
			rb := bid
			if throttled {
				rb = e.throttledBid(i, bid, remaining, auctions, occurring)
			} else if remaining < bid {
				rb = remaining // Naive: min(b_i, β_i)
			}
			roundBid[i] = rb
			score[i] = rb * a.Quality
		}
	}
}

// Drain advances rounds with no occurring auctions until every pending
// click has resolved, so end-of-day accounting is complete.
func (e *Engine) Drain() {
	none := make([]bool, len(e.w.Interests))
	for e.clicks.PendingCount() > 0 {
		e.Step(none)
	}
}

// scanIndependent resolves each occurring phrase with its own scan over its
// interested advertisers — the unshared baseline. It reports one operation
// per advertiser scanned beyond the first (see Stats.NodesMaterialized).
func (e *Engine) scanIndependent(occurring []bool) (materialized int) {
	k := len(e.w.SlotFactors)
	for q, occ := range occurring {
		if !occ {
			continue
		}
		ids := e.interest[q]
		run := e.scr.indep[q*(k+1) : (q+1)*(k+1)]
		e.scr.indepLen[q] = int32(topk.ScanRun(run, 0, k+1, e.scr.score, ids))
		if len(ids) > 1 {
			materialized += len(ids) - 1
		}
	}
	return materialized
}

// throttledBid computes advertiser i's Section-IV bid b̂_i for this round
// from its effective stated bid (already pacing-scaled) and its positive
// remaining budget. auctions is M, the round's number of occurring auctions.
func (e *Engine) throttledBid(i int, bid, remaining float64, auctions int, occurring []bool) float64 {
	prices, ctrs := e.out.Advertiser(i)
	omega := 0.0
	for _, p := range prices {
		omega += p
	}
	// Paper's fast path: even if every outstanding ad is clicked, the
	// advertiser can still afford m_i full bids — no throttling needed.
	// M ≥ m_i and rounding is monotone, so the test at M passing implies it
	// passes at m_i: count the exact m_i only when it fails.
	if omega <= remaining-float64(auctions)*bid {
		return bid
	}
	m := 0
	for q, occ := range occurring {
		if occ && e.w.Interests[q].Contains(i) {
			m++
		}
	}
	if omega <= remaining-float64(m)*bid {
		return bid
	}
	ads := e.tscr.ads[:0]
	for j := range prices {
		ads = append(ads, budget.OutstandingAd{Price: prices[j], CTR: ctrs[j]})
	}
	e.tscr.ads = ads
	if len(ads) <= e.cfg.ThrottleEnumLimit {
		return budget.ExactThrottledBid(bid, remaining, m, ads)
	}
	return e.tscr.dp.Bid(bid, remaining, m, ads, e.cfg.ThrottleUnit)
}
