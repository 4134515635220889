package workload

import (
	"math"
	"math/rand"
)

// refPendingAd is a displayed ad whose click outcome was pre-drawn at display
// time: clickRound < 0 means it will never be clicked.
type refPendingAd struct {
	advertiser int
	price      float64
	ctr0       float64
	displayed  int
	clickRound int
}

// refClickSim is the click simulator as it was before its storage became a
// timing wheel with per-advertiser lists: one pending slice that Advance
// rescans and compacts every round and Outstanding scans whole. It is kept
// unchanged, apart from its names, as the oracle FuzzClickSim and
// BenchmarkClickSim compare ClickSim against; ClickSim's doc is the model's.
type refClickSim struct {
	// Hazard is the per-round click probability given the ad will be
	// clicked and hasn't been yet.
	Hazard float64
	// Horizon is the age (in rounds) beyond which a click never arrives.
	Horizon int

	rng     *rand.Rand
	outcome OutcomeFunc
	pending []refPendingAd
	// clickBuf backs Advance's result so steady-state rounds do not
	// allocate; it is overwritten by the next Advance.
	clickBuf []Click
}

// newRefClickSim creates a simulator. hazard must be in (0, 1]; horizon ≥ 1.
func newRefClickSim(rng *rand.Rand, hazard float64, horizon int) *refClickSim {
	if hazard <= 0 || hazard > 1 || horizon < 1 {
		panic("workload: invalid click simulator parameters")
	}
	return &refClickSim{Hazard: hazard, Horizon: horizon, rng: rng}
}

// SetOutcome replaces the simulator's random draws with a deterministic
// outcome function (nil restores random draws). With an outcome set,
// Display consumes nothing from the random stream.
func (cs *refClickSim) SetOutcome(f OutcomeFunc) { cs.outcome = f }

// Display registers a shown ad: the advertiser, the price a click will
// cost, the click-through rate of (advertiser, slot), and the display
// round. The click outcome and delay are drawn immediately (but revealed
// only as rounds advance).
func (cs *refClickSim) Display(advertiser int, price, ctr float64, round int) {
	p := refPendingAd{advertiser: advertiser, price: price, ctr0: ctr, displayed: round, clickRound: -1}
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
func (cs *refClickSim) drawDelay() int {
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
func (cs *refClickSim) Advance(round int) []Click {
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
// It scans the whole pending list.
func (cs *refClickSim) Outstanding(advertiser, round int) (prices, ctrs []float64) {
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

// PendingCount returns how many ads are still awaiting resolution.
func (cs *refClickSim) PendingCount() int { return len(cs.pending) }
