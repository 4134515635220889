package workload

import (
	"math"
	"math/rand"
)

// Click is a realized click on a previously displayed ad.
type Click struct {
	Advertiser int
	Price      float64 // the per-click price fixed at auction time
	Displayed  int     // round the ad was shown
	Round      int     // round the click arrived
}

// pendingAd is a displayed ad whose click outcome was pre-drawn at display
// time: clickRound < 0 means it will never be clicked.
type pendingAd struct {
	advertiser int
	price      float64
	ctr0       float64
	displayed  int
	clickRound int
}

// OutcomeFunc decides a displayed ad's click fate deterministically:
// whether it is clicked and, if so, after how many rounds. It must be a
// pure function of its arguments so that runs that display the same ads
// (e.g. a sharded and a single-engine run over the same workload) see the
// same clicks regardless of how displays are distributed over simulators.
// A returned delay < 1 or ≥ the simulator's horizon means no click: delays
// of 0 cannot be observed (the display round's Advance has already run),
// and the simulator never delivers past its horizon.
type OutcomeFunc func(advertiser int, price, ctr float64, round int) (clicked bool, delay int)

// ClickSim simulates delayed clicks: a displayed ad with click-through rate
// ctr is eventually clicked with probability ctr; the delay is geometric
// with per-round continuation (1 − Hazard), conditioned on the observable
// window {1, …, Horizon−1}. Delay 0 is excluded by construction — the
// display round's Advance has already run when the ad is registered, so a
// same-round click could never be delivered (see OutcomeFunc) — and the
// normalization keeps the realized click frequency at ctr rather than
// losing the truncated tail. The probability that an ad of age a is still
// going to be clicked decays like ctr·(1−Hazard)^a (see RemainingCTR, the
// Section IV model; exact up to the horizon-truncation correction).
type ClickSim struct {
	// Hazard is the per-round click probability given the ad will be
	// clicked and hasn't been yet.
	Hazard float64
	// Horizon is the age (in rounds) beyond which a click never arrives.
	Horizon int

	rng     *rand.Rand
	outcome OutcomeFunc
	pending []pendingAd
	// clickBuf backs Advance's result so steady-state rounds do not
	// allocate; it is overwritten by the next Advance.
	clickBuf []Click
}

// NewClickSim creates a simulator. hazard must be in (0, 1]; horizon ≥ 1.
func NewClickSim(rng *rand.Rand, hazard float64, horizon int) *ClickSim {
	if hazard <= 0 || hazard > 1 || horizon < 1 {
		panic("workload: invalid click simulator parameters")
	}
	return &ClickSim{Hazard: hazard, Horizon: horizon, rng: rng}
}

// SetOutcome replaces the simulator's random draws with a deterministic
// outcome function (nil restores random draws). With an outcome set,
// Display consumes nothing from the random stream.
func (cs *ClickSim) SetOutcome(f OutcomeFunc) { cs.outcome = f }

// Display registers a shown ad: the advertiser, the price a click will
// cost, the click-through rate of (advertiser, slot), and the display
// round. The click outcome and delay are drawn immediately (but revealed
// only as rounds advance).
func (cs *ClickSim) Display(advertiser int, price, ctr float64, round int) {
	p := pendingAd{advertiser: advertiser, price: price, ctr0: ctr, displayed: round, clickRound: -1}
	if cs.outcome != nil {
		if clicked, delay := cs.outcome(advertiser, price, ctr, round); clicked && delay >= 1 && delay < cs.Horizon {
			p.clickRound = round + delay
		}
	} else if cs.rng.Float64() < ctr {
		if delay := cs.drawDelay(); delay > 0 {
			p.clickRound = round + delay
		}
	}
	cs.pending = append(cs.pending, p)
}

// drawDelay samples a click delay from the geometric hazard distribution
// P(delay = k) ∝ Hazard·(1−Hazard)^(k−1) conditioned on the observable
// support {1, …, Horizon−1}, via a single inverse-CDF uniform draw. The
// conditioning matters twice over: delay 0 is unobservable (the engines run
// Advance before Display within a round, so a delay-0 click would be
// silently dropped — the lost-click bias this replaces), and renormalizing
// instead of discarding the ≥ Horizon tail keeps the eventual click
// probability of a displayed ad at exactly its ctr. Returns 0 — no click —
// when the support is empty (Horizon < 2).
func (cs *ClickSim) drawDelay() int {
	if cs.Horizon < 2 {
		return 0
	}
	if cs.Hazard >= 1 {
		return 1
	}
	// z = P(1 ≤ delay ≤ Horizon−1) under the unconditioned geometric; the
	// smallest k with CDF(k)/z > u is 1 + ⌊ln(1−u·z)/ln(1−Hazard)⌋.
	z := 1 - math.Pow(1-cs.Hazard, float64(cs.Horizon-1))
	u := cs.rng.Float64()
	delay := 1 + int(math.Log1p(-u*z)/math.Log(1-cs.Hazard))
	if delay < 1 {
		delay = 1
	}
	if delay >= cs.Horizon {
		delay = cs.Horizon - 1
	}
	return delay
}

// Advance reveals the clicks that have arrived by the given round and drops
// ads past the horizon. Rounds must be advanced in non-decreasing order,
// but gaps are allowed: a click whose round falls strictly inside a gap is
// delivered at the next Advance, with Click.Round reporting the round the
// click actually arrived (≤ the advanced round), never silently dropped.
// The returned slice is reused by the next Advance call; callers that
// retain clicks across rounds must copy them.
func (cs *ClickSim) Advance(round int) []Click {
	clicks := cs.clickBuf[:0]
	keep := cs.pending[:0]
	for _, p := range cs.pending {
		switch {
		case p.clickRound >= 0 && p.clickRound <= round:
			clicks = append(clicks, Click{
				Advertiser: p.advertiser, Price: p.price,
				Displayed: p.displayed, Round: p.clickRound,
			})
		case p.clickRound > round:
			keep = append(keep, p)
		case p.clickRound < 0 && round-p.displayed < cs.Horizon:
			keep = append(keep, p) // still outstanding (will never click,
			// but the engine cannot know that)
		}
	}
	cs.pending = keep
	cs.clickBuf = clicks
	return clicks
}

// Outstanding returns, for budget throttling, every pending ad of the given
// advertiser as (price, remaining click probability at the current round).
// It scans the whole pending list; a round that needs every advertiser's
// ads buckets them once with BucketOutstanding instead.
func (cs *ClickSim) Outstanding(advertiser, round int) (prices, ctrs []float64) {
	for _, p := range cs.pending {
		if p.advertiser != advertiser {
			continue
		}
		rem := RemainingCTR(p.ctr0, round-p.displayed, cs.Hazard, cs.Horizon)
		if rem <= 0 || p.price <= 0 {
			continue
		}
		prices = append(prices, p.price)
		ctrs = append(ctrs, rem)
	}
	return prices, ctrs
}

// OutstandingBuckets is one round's outstanding ads grouped by advertiser
// in CSR form: advertiser i's ads are prices[start[i]:start[i+1]] with the
// matching remaining click probabilities in ctrs, in pending-list (display)
// order. The caller owns it and passes it to BucketOutstanding every round,
// which reuses its storage.
type OutstandingBuckets struct {
	start  []int32
	prices []float64
	ctrs   []float64
	// decay[a] = (1−hazard)^a for ages below the horizon, filled with
	// RemainingCTR's own math.Pow expression so ctr0·decay[a] is bit-for-bit
	// RemainingCTR(ctr0, a, …); hazard is the value the table was built for.
	decay  []float64
	hazard float64
}

// Advertiser returns advertiser i's bucket: what Outstanding(i, round)
// returned for the round the buckets were filled at, element for element.
// The slices view the buckets' storage and are valid until the next fill.
func (b *OutstandingBuckets) Advertiser(i int) (prices, ctrs []float64) {
	lo, hi := b.start[i], b.start[i+1]
	return b.prices[lo:hi], b.ctrs[lo:hi]
}

// BucketOutstanding fills b with every advertiser's outstanding ads at the
// given round in one stable counting sort over the pending list —
// O(pending + advertisers), where asking Outstanding per advertiser is
// O(pending × advertisers). Every pending advertiser index must be below
// numAdvertisers.
func (cs *ClickSim) BucketOutstanding(b *OutstandingBuckets, numAdvertisers, round int) {
	if len(b.decay) != cs.Horizon || b.hazard != cs.Hazard {
		b.decay = make([]float64, cs.Horizon)
		for a := range b.decay {
			b.decay[a] = math.Pow(1-cs.Hazard, float64(a))
		}
		b.hazard = cs.Hazard
	}
	if cap(b.start) < numAdvertisers+2 {
		b.start = make([]int32, numAdvertisers+2)
	}
	// Counts land two past the advertiser's index, so after the prefix sum
	// start[i+1] is bucket i's write cursor and, once every ad is placed,
	// bucket i's end — no separate cursor array.
	start := b.start[:numAdvertisers+2]
	clear(start)
	n := 0
	for i := range cs.pending {
		if p := &cs.pending[i]; outstandingCTR(b.decay, p, round) > 0 {
			start[p.advertiser+2]++
			n++
		}
	}
	for i := 2; i < len(start); i++ {
		start[i] += start[i-1]
	}
	if cap(b.prices) < n {
		// Doubling reaches the pending list's high-water mark in a few
		// rounds and then stays put (the engine's 0-alloc steady state).
		b.prices = make([]float64, n, 2*n)
		b.ctrs = make([]float64, n, 2*n)
	}
	b.prices, b.ctrs = b.prices[:n], b.ctrs[:n]
	for i := range cs.pending {
		p := &cs.pending[i]
		if rem := outstandingCTR(b.decay, p, round); rem > 0 {
			at := start[p.advertiser+1]
			start[p.advertiser+1]++
			b.prices[at], b.ctrs[at] = p.price, rem
		}
	}
}

// outstandingCTR is Outstanding's filter and RemainingCTR in one, reading
// the decay table (whose length is the horizon): the ad's remaining click
// probability, or 0 when Outstanding would skip it — past the horizon,
// never clickable, or free.
func outstandingCTR(decay []float64, p *pendingAd, round int) float64 {
	age := max(round-p.displayed, 0)
	if age >= len(decay) || p.ctr0 <= 0 || p.price <= 0 {
		return 0
	}
	return p.ctr0 * decay[age]
}

// PendingCount returns how many ads are still awaiting resolution.
func (cs *ClickSim) PendingCount() int { return len(cs.pending) }

// RemainingCTR is the Section IV model of the probability that an ad
// displayed with click-through rate ctr0 and now of the given age will
// still be clicked: ctr0·(1−hazard)^age, zero at or beyond the horizon.
// Under the simulator's horizon-conditioned delay draw this is exact up to
// the truncation correction (negligible whenever horizon ≫ 1/hazard).
func RemainingCTR(ctr0 float64, age int, hazard float64, horizon int) float64 {
	if age < 0 {
		age = 0
	}
	if age >= horizon || ctr0 <= 0 {
		return 0
	}
	return ctr0 * math.Pow(1-hazard, float64(age))
}
