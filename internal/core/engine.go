// Package core is the shared winner-determination engine — the system the
// paper's techniques compose into. Time and batches are separate calls.
// Tick opens a round: it syncs the pacer, applies lifecycle events and
//
//  1. collects the clicks arriving from earlier rounds and charges budgets
//     (never above an advertiser's daily budget).
//
// Resolve runs one batch of simultaneous auctions in the open round, as
// often as the caller has a batch; each Resolve
//
//  2. computes the round bid of the advertisers taking part in the round's
//     auctions — either the stated bid (naive policy) or the Section-IV
//     throttled bid b̂ that accounts for outstanding ads awaiting clicks.
//     Independent mode scores every participant. Shared mode scores only
//     those whose paced bid times quality reaches the round's τ, since no
//     other can become a candidate, and later the members of any phrase
//     the threshold pass leaves short;
//  3. resolves every occurring bid phrase's auction. Shared mode sorts the
//     round's τ-filtered candidates once and walks that one list for every
//     phrase (a Fagin–Lotem–Naor style threshold shared across auctions,
//     as in Section III); only a phrase the walk leaves short of k+1
//     entries is scanned on its own, as the baseline scans every auction.
//     A per-phrase-quality workload (c_i^q, Section III) shares only the
//     bid orderings: a shared merge-sort forest feeds the threshold
//     algorithm for each occurring phrase (sorted.go);
//  4. prices the winners (first-price / GSP / laddered VCG) and displays
//     their ads, registering them with the delayed-click simulator.
//
// Step is a Tick followed by one Resolve: a round that is one batch.
//
// The engine's counters expose exactly the quantities the paper's
// evaluation cares about: aggregation operations per round, revenue, and
// clicks that had to be forgiven because a naive policy let an advertiser
// win more than its budget could pay for (the Section-IV gaming loss).
package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"sharedwd/internal/bitset"
	"sharedwd/internal/budget"
	"sharedwd/internal/pricing"
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
	// SharedAggregation resolves the round with one shared threshold pass:
	// every participant scoring at least the round's τ joins one candidate
	// list, sorted once, and each occurring phrase takes its top-(k+1) from
	// a walk of that list. A phrase the walk leaves short is scanned on its
	// own, as Independent scans every phrase. The pass is exact for any τ,
	// so τ moves only cost.
	SharedAggregation SharingMode = iota
	// Independent scans each occurring phrase's advertisers separately. A
	// per-phrase-quality workload has no unshared path; New rejects it.
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
	// IncrementalCache is ignored: the engine keeps no plan result across
	// rounds.
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
	// Pacer, when non-nil, is the shared online pacing controller: every
	// Tick syncs it to the round it opens (idempotent across the shards
	// sharing it), and each advertiser's stated bid is scaled by
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
// round's work on the calling goroutine. Tick, Resolve, Step, Drain, Stats,
// Spent, and Close must all be called from one goroutine; more cores serve
// more shards (package shard), not one engine. A RoundReport's Auctions
// field views scratch buffers that the next Resolve overwrites; callers
// keeping results across resolves must copy them. The server package wraps
// an Engine in a round loop to provide a concurrent front end.
type Engine struct {
	cfg Config
	w   *workload.Workload

	clicks *workload.ClickSim
	spent  []float64 // realized payments per advertiser
	// round is the number of Ticks so far: the next round Tick opens. The
	// open round, the one Resolve runs in, is round − 1.
	round int

	// active[i] is advertiser i's lifecycle participation flag; lifeCursor
	// tracks schedule consumption and lifeFn is the pinned event-apply
	// closure (built once so round boundaries never allocate).
	active     []bool
	lifeCursor int
	lifeFn     func(workload.LifecycleEvent)

	// tauQ[q] is phrase q's threshold for its next resolve: (1 − tauMargin)
	// × the score of the last entry of q's run the last time q occurred,
	// +Inf if that run was empty, 0 before q first occurs. A resolve's τ is
	// the minimum over its occurring phrases (shared mode only; nil
	// otherwise). It is keyed on nothing but the resolves themselves, so
	// several resolves in one round each start from the last one's runs.
	tauQ []float64
	// tauForced, when non-nil, replaces the round's τ. Only tests set it.
	tauForced *float64

	scr  roundScratch
	tscr throttleScratch

	stats Stats

	// sorted is phase 3 for a per-phrase-quality workload; nil otherwise.
	sorted *sortedResolver
}

// tauMargin is how far below a phrase's last (k+1)-th score its next τ
// sits. It trades candidates per round against phrases left short; DESIGN.md
// §5 records the sweep it was chosen from.
const tauMargin = 0.10

// roundScratch holds every per-resolve buffer Resolve reuses, so
// steady-state resolves allocate nothing. RoundReports returned by Resolve
// view into these buffers and are valid until the next Resolve.
type roundScratch struct {
	occ []bool
	// part is the round's participants: the union of the occurring phrases'
	// interest sets.
	part bitset.Set
	// auctionCount is M, the round's number of occurring auctions.
	auctionCount int
	// roundBid[i] and score[i] are advertiser i's round bid and effective
	// score b̂_i·c_i. Both hold this round's values only where
	// scoredAt[i] == epoch; every other entry is stale and never read. Both
	// sharing modes read leaf values from this one slab so they score
	// bit-identically.
	roundBid []float64
	score    []float64
	// scoredAt[i] is the epoch in which advertiser i was last scored; epoch
	// advances once per resolve's scoring phase, not per round, so the stamp
	// replaces clearing the two slabs however many resolves a round holds.
	// scored counts the resolve's stamps.
	scoredAt []uint32
	epoch    uint32
	scored   int
	ranked   []pricing.Ranked
	parts    []pricing.Ranked
	prices   []float64
	auctions map[int][]SlotResult
	slots    [][]SlotResult // per-phrase slot buffers backing auctions
	// runs is the round's result slab, one stride-(k+1) segment per phrase
	// holding runLen[q] entries: the threshold pass's walk or scanPhrase's
	// scan of the phrase's members.
	runs   []topk.Entry
	runLen []int32
	// cand is the shared-mode candidate slab: every participant whose score
	// is positive and at least the round's tau, sorted once in phase 3. Its
	// capacity is the advertiser count, so appends never grow it.
	cand []topk.Entry
	tau  float64 // the round's τ, as scoreParticipants set it
	// short[q] marks an occurring phrase whose walk found fewer than k+1
	// candidates while tau was not ≤ 0: scanPhrase rewrote its run.
	short []bool
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
	// Rounds counts Ticks: rounds of time, however many resolves each held.
	Rounds           int `json:"rounds"`
	AuctionsResolved int `json:"auctions_resolved"`
	// NodesMaterialized counts top-k aggregation operations performed (the
	// Section-II cost metric) by the per-phrase scans: one per member
	// scanned beyond the first per scanned auction. Independent mode scans
	// every occurring auction; shared mode scans only the short ones, since
	// the threshold pass itself is counted by Candidates.
	NodesMaterialized int `json:"nodes_materialized"`
	// NodesCached is always 0 and is not part of the wire schema.
	//
	// Deprecated: kept only because benchmark/ still reads it; deleted with
	// the other benchmark shims (ROADMAP item 1(f)).
	NodesCached int `json:"-"`
	// Candidates counts the shared threshold pass's candidates: participants
	// whose score cleared their round's τ, summed over rounds.
	Candidates int `json:"candidates"`
	// ShortAuctions counts the auctions the threshold pass left short of
	// k+1 entries, which a per-phrase scan resolved.
	ShortAuctions int `json:"short_auctions"`
	// Scored counts the participants the engine scored, summed over rounds:
	// every participant in Independent mode and for per-phrase quality; in
	// shared mode only those whose paced ceiling reached τ, plus the skipped
	// members of short phrases, scored for their scans.
	Scored        int     `json:"scored"`
	Revenue       float64 `json:"revenue"`
	ClicksCharged int     `json:"clicks_charged"`
	// ClicksForgiven counts clicks whose price exceeded the advertiser's
	// remaining budget and could not be charged — the paper's lost revenue.
	ClicksForgiven int     `json:"clicks_forgiven"`
	ForgivenValue  float64 `json:"forgiven_value"`
	AdsDisplayed   int     `json:"ads_displayed"`
	// SortedAccesses counts the threshold algorithm's sorted accesses, the
	// work it minimizes, and MergePulls the shared merge-sort forest's
	// operator invocations; both only for a per-phrase-quality workload.
	SortedAccesses int `json:"sorted_accesses"`
	MergePulls     int `json:"merge_pulls"`
}

// Add returns the field-wise sum of two stat sets — the aggregation used to
// roll per-shard engine counters up into one fleet-wide view.
func (s Stats) Add(o Stats) Stats {
	s.Rounds += o.Rounds
	s.AuctionsResolved += o.AuctionsResolved
	s.NodesMaterialized += o.NodesMaterialized
	s.Candidates += o.Candidates
	s.ShortAuctions += o.ShortAuctions
	s.Scored += o.Scored
	s.Revenue += o.Revenue
	s.ClicksCharged += o.ClicksCharged
	s.ClicksForgiven += o.ClicksForgiven
	s.ForgivenValue += o.ForgivenValue
	s.AdsDisplayed += o.AdsDisplayed
	s.SortedAccesses += o.SortedAccesses
	s.MergePulls += o.MergePulls
	return s
}

// New builds an engine for the workload. It checks that every interest set
// spans the workload's advertisers and that every phrase has a search rate
// in [0, 1]. A per-phrase-quality workload (w.Quality != nil) is resolved
// by the shared merge-sort forest and the threshold algorithm, and needs
// SharedAggregation.
func New(w *workload.Workload, cfg Config) (*Engine, error) {
	if w.Quality != nil && cfg.Sharing == Independent {
		return nil, fmt.Errorf("core: a per-phrase-quality workload is resolved by the shared sort; Independent sharing does not apply")
	}
	if w.Quality != nil && len(w.Quality) != len(w.Interests) {
		return nil, fmt.Errorf("core: %d per-phrase quality rows for %d phrases", len(w.Quality), len(w.Interests))
	}
	if len(w.Rates) != len(w.Interests) {
		return nil, fmt.Errorf("core: %d search rates for %d phrases", len(w.Rates), len(w.Interests))
	}
	for q, set := range w.Interests {
		if set.Cap() != len(w.Advertisers) {
			return nil, fmt.Errorf("core: phrase %d's interest set has capacity %d, workload has %d advertisers", q, set.Cap(), len(w.Advertisers))
		}
		if r := w.Rates[q]; !(r >= 0 && r <= 1) {
			return nil, fmt.Errorf("core: phrase %d has search rate %v outside [0, 1]", q, r)
		}
		if w.Quality != nil && len(w.Quality[q]) != len(w.Advertisers) {
			return nil, fmt.Errorf("core: phrase %d has %d quality factors, workload has %d advertisers", q, len(w.Quality[q]), len(w.Advertisers))
		}
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
	e.scr.part = bitset.New(len(w.Advertisers))
	e.scr.roundBid = make([]float64, len(w.Advertisers))
	e.scr.score = make([]float64, len(w.Advertisers))
	e.scr.scoredAt = make([]uint32, len(w.Advertisers))
	e.scr.auctions = make(map[int][]SlotResult, len(w.Interests))
	e.scr.slots = make([][]SlotResult, len(w.Interests))
	k := len(w.SlotFactors)
	e.scr.runs = make([]topk.Entry, len(w.Interests)*(k+1))
	e.scr.runLen = make([]int32, len(w.Interests))
	e.scr.short = make([]bool, len(w.Interests))
	switch {
	case w.Quality != nil:
		sorted, err := newSortedResolver(w)
		if err != nil {
			return nil, err
		}
		e.sorted = sorted
	case cfg.Sharing == SharedAggregation:
		e.scr.cand = make([]topk.Entry, 0, len(w.Advertisers))
		e.tauQ = make([]float64, len(w.Interests))
	}
	return e, nil
}

// Close is an idempotent no-op: an engine owns no goroutines or other
// resources to release. It stays so that callers written against a closable
// engine keep compiling.
func (e *Engine) Close() {}

// Stats returns the accumulated counters.
func (e *Engine) Stats() Stats { return e.stats }

// Round returns the number of the next round to be stepped: the number of
// Ticks so far. Resolve runs in round Round() − 1.
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

// RoundReport is the outcome of one Step or Resolve. Its Auctions map and
// Clicks slice view engine-owned scratch buffers that the next Resolve and
// Tick overwrite; callers that retain a report must copy what they keep.
type RoundReport struct {
	// Round is the round the auctions ran in, which several resolves can
	// share.
	Round int
	// Auctions maps occurring phrase → its filled slots.
	Auctions map[int][]SlotResult
	// Clicks that arrived this round (from earlier displays): Step's, from
	// its Tick. A Resolve's report has none.
	Clicks []workload.Click
	// Materialized counts the aggregation operations performed this resolve
	// (see Stats.NodesMaterialized): in shared mode, the short phrases'
	// scans only, so 0 in a resolve that left no phrase short.
	Materialized int
}

// Step advances one round and resolves its auctions: occurring[q] says
// whether phrase q's auction runs. Passing nil samples occurrence from the
// workload's search rates. It is Tick followed by one Resolve, and its
// report carries both halves: the clicks Tick delivered and the auctions
// Resolve ran.
func (e *Engine) Step(occurring []bool) RoundReport {
	occurring = e.occurrence(occurring)
	clicks := e.Tick()
	rep := e.Resolve(occurring)
	rep.Clicks = clicks
	return rep
}

// occurrence returns occurring, or a sample of the workload's search rates
// when it is nil, and checks its length.
func (e *Engine) occurrence(occurring []bool) []bool {
	if occurring == nil {
		e.scr.occ = e.w.SampleRoundInto(e.scr.occ)
		occurring = e.scr.occ
	}
	if len(occurring) != len(e.w.Interests) {
		panic(fmt.Sprintf("core: %d occurrence flags for %d phrases", len(occurring), len(e.w.Interests)))
	}
	return occurring
}

// Tick advances time by one round: it opens round Round() and returns the
// clicks that arrived in it, which view a buffer the next Tick overwrites.
// Everything that ages with time happens here and nowhere else: the pacer's
// sync, lifecycle events, click delivery and charging. Resolve runs the
// round's auctions, as many batches of them as the caller likes; a round
// with no traffic is a Tick alone.
func (e *Engine) Tick() []workload.Click {
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
	clicks := e.clicks.Advance(e.round)
	for _, c := range clicks {
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
	e.stats.Rounds++
	e.round++
	return clicks
}

// Resolve runs one batch of simultaneous auctions in the round the last
// Tick opened, Round() − 1: occurring[q] says whether phrase q's auction
// runs, and nil samples occurrence from the search rates. Any number of
// Resolves may share a round. Each scores its own participants, so a later
// batch sees the ads an earlier one displayed as outstanding, and each
// moves the thresholds the next batch starts from. The report's Clicks is
// empty: clicks arrive with Tick. Resolve panics before the first Tick.
func (e *Engine) Resolve(occurring []bool) RoundReport {
	if e.round == 0 {
		panic("core: Resolve before the first Tick")
	}
	occurring = e.occurrence(occurring)
	now := e.round - 1
	clear(e.scr.auctions)
	rep := RoundReport{Round: now, Auctions: e.scr.auctions}

	// 2. The participants' round bids under the budget policy.
	e.scoreParticipants(occurring)

	// 3. Winner determination across the occurring auctions: one path per
	// sharing mode, and the shared sort for per-phrase quality.
	k := len(e.w.SlotFactors)
	switch {
	case e.sorted != nil:
		e.resolveSorted(occurring)
	case e.cfg.Sharing == SharedAggregation:
		rep.Materialized = e.resolveShared(occurring)
	case e.cfg.Sharing == Independent:
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
		run := e.run(q)
		// Pricing sees each entry's advertiser with its round bid and quality.
		ranked := e.scr.ranked[:0]
		for _, entry := range run {
			ranked = append(ranked, pricing.Ranked{ID: entry.ID, Bid: e.scr.roundBid[entry.ID], Quality: e.w.QualityFor(q, entry.ID)})
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
			e.clicks.Display(adv.ID, prices[j], ctr, now)
			e.stats.AdsDisplayed++
			slots = append(slots, SlotResult{Slot: j, Advertiser: adv.ID, PricePaid: prices[j]})
		}
		e.scr.slots[q] = slots
		if len(slots) > 0 {
			rep.Auctions[q] = slots
		}
	}

	e.stats.NodesMaterialized += rep.Materialized
	e.stats.Scored += e.scr.scored
	return rep
}

// scoreParticipants scores the round's participants: the advertisers in an
// occurring auction. Independent mode scores every one. In shared mode it
// also sets the round's τ and collects the candidate slab, and it scores a
// participant only if its paced ceiling Bid·Factor·Quality reaches τ. The
// test is exact: the pacer factor is in [0, 1], both policies' round bids
// are at most the paced bid, and IEEE multiplication by a non-negative
// quality is monotone, so a participant below its ceiling test scores below
// τ and cannot be a candidate. resolveShared scores the skipped members of
// short phrases before scanPhrase reads them.
func (e *Engine) scoreParticipants(occurring []bool) {
	part := e.scr.part
	part.Clear()
	auctions := 0      // M: the round's occurring auctions, an upper bound on every m_i
	tau := math.Inf(1) // Independent mode's: it runs no threshold pass
	for q, occ := range occurring {
		if occ {
			auctions++
			part.UnionInPlace(e.w.Interests[q])
			if e.tauQ != nil {
				tau = min(tau, e.tauQ[q])
			}
		}
	}
	if e.tauForced != nil {
		tau = *e.tauForced
	}
	e.scr.tau = tau
	e.scr.auctionCount = auctions
	if e.scr.epoch++; e.scr.epoch == 0 { // wrapped: no stale stamp may match
		clear(e.scr.scoredAt)
		e.scr.epoch = 1
	}
	e.scr.scored = 0
	if e.tauQ == nil {
		for j, word := range part.Words() {
			for ; word != 0; word &= word - 1 {
				i := j<<6 | bits.TrailingZeros64(word)
				e.scoreAdvertiser(i, e.pacedBid(i), occurring)
			}
		}
		return
	}
	// Shared mode: the ceiling test first, over every participant. The loop
	// inlines pacedBid over hoisted slices and makes no call, so its state
	// stays in registers (measured faster than calling pacedBid in it).
	// The few that pass are scored after it, and those that reach τ are
	// kept in place as the round's candidates.
	cand := e.scr.cand[:0]
	active, advs, pacer := e.active, e.w.Advertisers, e.cfg.Pacer
	for j, word := range part.Words() {
		for ; word != 0; word &= word - 1 {
			i := j<<6 | bits.TrailingZeros64(word)
			bid := 0.0
			if active[i] {
				bid = advs[i].Bid
				if pacer != nil {
					bid *= pacer.Factor(i)
				}
			}
			if !(bid*advs[i].Quality < tau) {
				cand = append(cand, topk.Entry{ID: i})
			}
		}
	}
	n := 0
	for _, c := range cand {
		if s := e.scoreAdvertiser(c.ID, e.pacedBid(c.ID), occurring); s > 0 && s >= tau {
			cand[n] = topk.Entry{ID: c.ID, Score: s}
			n++
		}
	}
	e.scr.cand = cand[:n]
}

// pacedBid returns advertiser i's stated bid scaled by its pacing factor —
// the bid Section IV computes b̂ from — or 0 if i is not active.
func (e *Engine) pacedBid(i int) float64 {
	if !e.active[i] {
		return 0
	}
	bid := e.w.Advertisers[i].Bid
	if e.cfg.Pacer != nil {
		bid *= e.cfg.Pacer.Factor(i)
	}
	return bid
}

// scoreAdvertiser computes participant i's round bid under the budget
// policy from its paced bid, writes it and its score to the round's slabs,
// stamps both, and returns the score. A participant with no positive bid or
// no remaining budget scores 0.
func (e *Engine) scoreAdvertiser(i int, bid float64, occurring []bool) float64 {
	rb, s := 0.0, 0.0
	if bid > 0 {
		remaining := e.w.Advertisers[i].Budget - e.spent[i]
		if e.cfg.Ledger != nil {
			remaining = e.cfg.Ledger.Remaining(i)
		}
		if remaining > 0 {
			rb = bid
			if e.cfg.Policy == Throttled {
				rb = e.throttledBid(i, bid, remaining, occurring)
			} else if remaining < bid {
				rb = remaining // Naive: min(b_i, β_i)
			}
			s = rb * e.w.Advertisers[i].Quality
		}
	}
	e.scr.roundBid[i], e.scr.score[i] = rb, s
	e.scr.scoredAt[i] = e.scr.epoch
	e.scr.scored++
	return s
}

// resolveShared is shared mode's phase 3: one threshold pass over the
// round's candidates, then scanPhrase for the phrases it leaves short. It
// returns the scans' aggregation count.
//
// The pass is exact for any τ. Every member of phrase q that is not a
// candidate scores below τ (or not above 0), and every candidate scores at
// least τ. So a walk of the sorted candidates that finds k+1 members of q
// has found q's exact top-(k+1) in Entry.Less order, ties included. A walk
// that finds fewer is exact only at τ ≤ 0; otherwise the phrase is short and
// a scan of all its members resolves it. The candidate test is ≥ rather
// than > so that a member scoring exactly τ — as the entry τ was taken from
// does when scores hold still — keeps its phrase off the scan.
func (e *Engine) resolveShared(occurring []bool) (materialized int) {
	k1 := len(e.w.SlotFactors) + 1
	cand := e.scr.cand
	slices.SortFunc(cand, func(a, b topk.Entry) int {
		if a.Less(b) {
			return -1
		}
		return 1 // IDs are unique, so no two candidates tie
	})
	short := e.scr.short
	shortCount := 0
	for q, occ := range occurring {
		short[q] = false
		if !occ {
			continue
		}
		set := e.w.Interests[q]
		run := e.scr.runs[q*k1 : (q+1)*k1]
		n := 0
		for _, c := range cand {
			if set.Contains(c.ID) {
				run[n] = c
				if n++; n == k1 {
					break
				}
			}
		}
		e.scr.runLen[q] = int32(n)
		if n < k1 && !(e.scr.tau <= 0) { // a NaN τ is short, too
			short[q] = true
			shortCount++
			// Score the members the ceiling test skipped, so the scan reads
			// no stale entry.
			for j, word := range set.Words() {
				for ; word != 0; word &= word - 1 {
					if i := j<<6 | bits.TrailingZeros64(word); e.scr.scoredAt[i] != e.scr.epoch {
						e.scoreAdvertiser(i, e.pacedBid(i), occurring)
					}
				}
			}
			materialized += e.scanPhrase(q)
		}
		if last := e.scr.runLen[q] - 1; last >= 0 {
			e.tauQ[q] = (1 - tauMargin) * run[last].Score
		} else {
			e.tauQ[q] = math.Inf(1)
		}
	}
	e.stats.Candidates += len(cand)
	e.stats.ShortAuctions += shortCount
	return materialized
}

// run returns occurring phrase q's top-(k+1) run for the round in rank
// order.
func (e *Engine) run(q int) []topk.Entry {
	k1 := len(e.w.SlotFactors) + 1
	return e.scr.runs[q*k1:][:e.scr.runLen[q]]
}

// Drain ticks rounds with no auctions until every pending click has
// resolved, so end-of-day accounting is complete.
func (e *Engine) Drain() {
	for e.clicks.PendingCount() > 0 {
		e.Tick()
	}
}

// scanIndependent resolves each occurring phrase with its own scan over its
// interested advertisers — the unshared baseline.
func (e *Engine) scanIndependent(occurring []bool) (materialized int) {
	for q, occ := range occurring {
		if occ {
			materialized += e.scanPhrase(q)
		}
	}
	return materialized
}

// scanPhrase writes phrase q's top-(k+1) run by folding every member's
// score into q's run segment, skipping members whose score is not
// positive; every member must be scored this round. It returns the scan's
// aggregation count, one per member beyond the first. Members come in
// ascending ID order, so a member that only ties a full run's last entry
// ranks below it and is skipped with it.
func (e *Engine) scanPhrase(q int) (materialized int) {
	k1 := len(e.w.SlotFactors) + 1
	run := e.scr.runs[q*k1 : (q+1)*k1]
	score := e.scr.score
	n, members := 0, 0
	for j, word := range e.w.Interests[q].Words() {
		members += bits.OnesCount64(word)
		for ; word != 0; word &= word - 1 {
			i := j<<6 | bits.TrailingZeros64(word)
			if s := score[i]; s > 0 && (n < k1 || s > run[k1-1].Score) {
				n = topk.PushRun(run, n, k1, topk.Entry{ID: i, Score: s})
			}
		}
	}
	e.scr.runLen[q] = int32(n)
	return max(members-1, 0)
}

// throttledBid computes advertiser i's Section-IV bid b̂_i for this resolve
// from its effective stated bid (already pacing-scaled) and its positive
// remaining budget. It reads only i's outstanding ads, in display order, at
// the open round, so ads an earlier resolve of the round displayed count at
// age 0. m_i is i's auctions in this resolve (DESIGN.md, "Time vs
// batches").
func (e *Engine) throttledBid(i int, bid, remaining float64, occurring []bool) float64 {
	ads := e.clicks.AppendOutstanding(e.tscr.ads[:0], i, e.round-1)
	e.tscr.ads = ads
	omega := 0.0
	for _, a := range ads {
		omega += a.Price
	}
	// Paper's fast path: even if every outstanding ad is clicked, the
	// advertiser can still afford m_i full bids — no throttling needed.
	// M ≥ m_i and rounding is monotone, so the test at M passing implies it
	// passes at m_i: count the exact m_i only when it fails.
	if omega <= remaining-float64(e.scr.auctionCount)*bid {
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
	var b float64
	if len(ads) <= e.cfg.ThrottleEnumLimit {
		b = budget.ExactThrottledBid(bid, remaining, m, ads)
	} else {
		b = e.tscr.dp.Bid(bid, remaining, m, ads, e.cfg.ThrottleUnit)
	}
	// Both sum probability-weighted terms each ≤ bid, and the rounded
	// probabilities may sum a few ulps above 1. The clamp keeps b̂ ≤ bid,
	// which the shared ceiling test needs to be exact.
	return min(b, bid)
}
