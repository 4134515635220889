// Package budget implements Section IV of the paper: winner determination
// under budget uncertainty.
//
// An advertiser's remaining budget β is uncertain whenever ads displayed in
// earlier auctions are still awaiting clicks: each outstanding ad j will
// eventually cost its price π_j with probability ctr_j. With m auctions in
// the current round and stated bid b, the paper's throttled bid is
//
//	b̂ = E[min(b, max(0, β − S)/m)],  S = Σ_j X_j,  X_j ∈ {π_j w.p. ctr_j, 0}.
//
// This package computes b̂ three ways: exact subset enumeration, an exact
// dynamic program over currency units, and — the paper's contribution —
// anytime upper/lower bounds built from Hoeffding's inequality that tighten
// by expanding the largest-price outstanding ads first, so that two
// throttled bids can be compared without ever computing either exactly.
package budget

import (
	"fmt"
	"math"
	"sort"

	"sharedwd/internal/workload"
)

// OutstandingAd is a displayed ad awaiting a click: the price a click would
// cost and the (current) probability that the click eventually happens. It
// is the click simulator's type, so the engine reads an advertiser's ads
// into the shape this package takes with no copy between the two.
type OutstandingAd = workload.OutstandingAd

// Interval is a closed interval [Lo, Hi] bounding an uncertain quantity.
type Interval struct {
	Lo, Hi float64
}

// Width returns Hi − Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Contains reports whether x ∈ [Lo, Hi].
func (iv Interval) Contains(x float64) bool { return iv.Lo <= x && x <= iv.Hi }

// Below reports whether the entire interval lies strictly below the other.
func (iv Interval) Below(o Interval) bool { return iv.Hi < o.Lo }

func (iv Interval) String() string { return fmt.Sprintf("[%.6g, %.6g]", iv.Lo, iv.Hi) }

// Throttler computes anytime bounds on one advertiser's throttled bid b̂.
// Refine tightens the bounds by one expansion level (branching explicitly on
// the largest-price outstanding ad not yet expanded, per the paper's
// largest-π-first order); after l refinements the bounds are exact.
type Throttler struct {
	ID       int // advertiser identity, for deterministic tie-breaking
	Bid      float64
	Budget   float64 // β: remaining budget before outstanding debts
	Auctions int     // m: auctions the advertiser enters this round

	ads []OutstandingAd // sorted by ascending price
	// Prefix aggregates over ads[0..p): mean, Σπ², Σπ.
	mu, w2, omega []float64

	level  int // ads expanded explicitly (from the largest down)
	bounds Interval
}

// NewThrottler validates inputs and returns a throttler at expansion level
// 0 (pure Hoeffding bounds). Prices must be positive, CTRs in [0,1],
// budget ≥ 0, bid ≥ 0, auctions ≥ 1.
func NewThrottler(id int, bid, budget float64, auctions int, ads []OutstandingAd) (*Throttler, error) {
	if bid < 0 || budget < 0 {
		return nil, fmt.Errorf("budget: negative bid %v or budget %v", bid, budget)
	}
	if auctions < 1 {
		return nil, fmt.Errorf("budget: advertiser in %d auctions", auctions)
	}
	sorted := append([]OutstandingAd(nil), ads...)
	for _, ad := range sorted {
		if ad.Price <= 0 {
			return nil, fmt.Errorf("budget: outstanding ad price %v must be positive", ad.Price)
		}
		if ad.CTR < 0 || ad.CTR > 1 {
			return nil, fmt.Errorf("budget: outstanding ad ctr %v outside [0,1]", ad.CTR)
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Price < sorted[j].Price })
	t := &Throttler{ID: id, Bid: bid, Budget: budget, Auctions: auctions, ads: sorted}
	l := len(sorted)
	t.mu = make([]float64, l+1)
	t.w2 = make([]float64, l+1)
	t.omega = make([]float64, l+1)
	for j, ad := range sorted {
		t.mu[j+1] = t.mu[j] + ad.CTR*ad.Price
		t.w2[j+1] = t.w2[j] + ad.Price*ad.Price
		t.omega[j+1] = t.omega[j] + ad.Price
	}
	t.recompute()
	return t, nil
}

// MustThrottler is NewThrottler that panics on error.
func MustThrottler(id int, bid, budget float64, auctions int, ads []OutstandingAd) *Throttler {
	t, err := NewThrottler(id, bid, budget, auctions, ads)
	if err != nil {
		panic(err)
	}
	return t
}

// Bounds returns the current interval for b̂.
func (t *Throttler) Bounds() Interval { return t.bounds }

// IsExact reports whether no further tightening is possible: the bounds
// have collapsed (fast path, or numerically) or every ad is expanded.
func (t *Throttler) IsExact() bool {
	return t.level >= len(t.ads) || t.bounds.Width() <= 1e-12
}

// Level returns the number of outstanding ads expanded so far.
func (t *Throttler) Level() int { return t.level }

// Refine expands one more outstanding ad (largest remaining price first) and
// recomputes the bounds. It reports whether any tightening is still possible
// afterwards; refining an exact throttler is a no-op returning false.
func (t *Throttler) Refine() bool {
	if t.level >= len(t.ads) {
		return false
	}
	t.level++
	t.recompute()
	return t.level < len(t.ads) && !t.IsExact()
}

// Exact collapses the bounds to the exact throttled bid (via plain subset
// enumeration, which shares the O(2^l) shape of full refinement but with
// far cheaper constants) and returns it.
func (t *Throttler) Exact() float64 {
	if !t.IsExact() {
		v := ExactThrottledBid(t.Bid, t.Budget, t.Auctions, t.ads)
		t.bounds = Interval{v, v}
		t.level = len(t.ads)
	}
	return t.bounds.Lo
}

// recompute evaluates the b̂ bounds at the current expansion level:
//
//	b̂ = b·Pr(S < β−mb) + (β·Pr(A) − E(S·1_A))/m,  A = [max(0, β−mb), β).
func (t *Throttler) recompute() {
	b, beta, m := t.Bid, t.Budget, float64(t.Auctions)
	l := len(t.ads)
	if b == 0 || t.omega[l] <= beta-m*b {
		// Fast path from the paper: the advertiser can afford full bids in
		// all m auctions even if every outstanding ad is clicked.
		t.bounds = Interval{b, b}
		return
	}
	x0 := beta - m*b
	pr1 := t.prLess(l, x0)
	prA := intervalSubClamp(t.prLess(l, beta), t.prLess(l, x0))
	eA := t.eRange(l, x0, beta)
	lo := b*pr1.Lo + math.Max(0, beta*prA.Lo-eA.Hi)/m
	hi := b*pr1.Hi + math.Max(0, beta*prA.Hi-eA.Lo)/m
	t.bounds = Interval{clamp(lo, 0, b), clamp(hi, 0, b)}
	if t.bounds.Lo > t.bounds.Hi { // numeric safety
		mid := (t.bounds.Lo + t.bounds.Hi) / 2
		t.bounds = Interval{mid, mid}
	}
}

// prLess bounds Pr(S_p < x) for the prefix of the first p (smallest-price)
// ads, branching explicitly on ads with index ≥ floor = l − level and using
// Hoeffding's inequality below that.
func (t *Throttler) prLess(p int, x float64) Interval {
	floor := len(t.ads) - t.level
	if p > floor {
		ad := t.ads[p-1]
		hit := t.prLess(p-1, x-ad.Price)
		miss := t.prLess(p-1, x)
		return Interval{
			Lo: ad.CTR*hit.Lo + (1-ad.CTR)*miss.Lo,
			Hi: ad.CTR*hit.Hi + (1-ad.CTR)*miss.Hi,
		}
	}
	return t.hoeffdingPr(p, x)
}

// hoeffdingPr bounds Pr(S_p < x) from the prefix aggregates alone. S_p is a
// sum of independent bounded variables X_j ∈ [0, π_j], so Hoeffding gives
// Pr(S ≥ μ+t), Pr(S ≤ μ−t) ≤ exp(−2t²/Σπ²).
//
// Note: the paper additionally floors/caps its bounds at 0.5 (treating the
// mean as a median); that step is not sound for skewed sums, so this
// implementation keeps the pure Hoeffding bounds. See DESIGN.md.
func (t *Throttler) hoeffdingPr(p int, x float64) Interval {
	if x <= 0 {
		return Interval{0, 0} // S ≥ 0 always
	}
	omega, mu, w2 := t.omega[p], t.mu[p], t.w2[p]
	if x > omega {
		return Interval{1, 1} // S ≤ ω always
	}
	if w2 == 0 {
		// No outstanding mass in the prefix: S = 0 < x deterministically
		// (x > 0 here). Unreachable when all prices are positive and p > 0,
		// but kept for safety.
		return Interval{1, 1}
	}
	if x > mu {
		return Interval{math.Max(0, 1-math.Exp(-2*(x-mu)*(x-mu)/w2)), 1}
	}
	return Interval{0, math.Min(1, math.Exp(-2*(mu-x)*(mu-x)/w2))}
}

// eRange bounds E(S_p · 1{x ≤ S_p < y}), expanding explicit ads per the
// paper's recursion
//
//	E(S_l·1{x≤S_l<y}) = ctr_l·[E(S_{l−1}·1{x−π≤·<y−π}) + π·Pr(x−π ≤ S_{l−1} < y−π)]
//	                  + (1−ctr_l)·E(S_{l−1}·1{x≤·<y})
//
// and at the Hoeffding floor using x·Pr ≤ E ≤ min(y, ω, on-mean cap)·Pr.
func (t *Throttler) eRange(p int, x, y float64) Interval {
	if y <= 0 || x >= y {
		return Interval{0, 0}
	}
	floor := len(t.ads) - t.level
	if p > floor {
		ad := t.ads[p-1]
		eHit := t.eRange(p-1, x-ad.Price, y-ad.Price)
		prHit := intervalSubClamp(t.prLess(p-1, y-ad.Price), t.prLess(p-1, x-ad.Price))
		eMiss := t.eRange(p-1, x, y)
		return Interval{
			Lo: ad.CTR*(eHit.Lo+ad.Price*prHit.Lo) + (1-ad.CTR)*eMiss.Lo,
			Hi: ad.CTR*(eHit.Hi+ad.Price*prHit.Hi) + (1-ad.CTR)*eMiss.Hi,
		}
	}
	pr := intervalSubClamp(t.prLess(p, y), t.prLess(p, x))
	loMass := math.Max(0, x)
	hiMass := math.Min(y, t.omega[p])
	return Interval{
		Lo: loMass * pr.Lo,
		Hi: math.Min(hiMass*pr.Hi, t.mu[p]), // E(S·1_A) ≤ E(S) = μ
	}
}

// intervalSubClamp computes bounds for Pr(x ≤ S < y) = Pr(S<y) − Pr(S<x),
// clamped to [0,1], per the paper's range-bound derivation.
func intervalSubClamp(y, x Interval) Interval {
	return Interval{
		Lo: clamp(y.Lo-x.Hi, 0, 1),
		Hi: clamp(y.Hi-x.Lo, 0, 1),
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ExactThrottledBid computes b̂ by exhaustive enumeration over the 2^l click
// outcomes of the outstanding ads — the paper's O(2^l) reference method.
// Use only for small l (tests, and pricing the k winners).
func ExactThrottledBid(bid, budget float64, auctions int, ads []OutstandingAd) float64 {
	if auctions < 1 {
		panic("budget: auctions must be ≥ 1")
	}
	m := float64(auctions)
	var rec func(j int, prob, sum float64) float64
	rec = func(j int, prob, sum float64) float64 {
		if prob == 0 {
			return 0
		}
		if j == len(ads) {
			return prob * math.Min(bid, math.Max(0, budget-sum)/m)
		}
		return rec(j+1, prob*ads[j].CTR, sum+ads[j].Price) +
			rec(j+1, prob*(1-ads[j].CTR), sum)
	}
	return rec(0, 1, 0)
}

// ExactThrottledBidDP computes b̂ by dynamic programming over currency
// units: the distribution of min(β, S) on a grid of `unit`-sized steps
// (e.g. cents). Exact when every price and the budget are multiples of
// unit; runs in O(l · β/unit) — the paper's O(β) alternative.
//
// Grid resolution: with prices that are unit multiples but an off-grid
// budget, the only error source is grid saturation at round(β/unit), so
// |DP − exact| < unit/(2m). With arbitrary prices each of the l prices
// additionally rounds by at most unit/2, giving |DP − exact| ≤
// (l+1)·unit/(2m). The result is always in [0, bid].
func ExactThrottledBidDP(bid, budget float64, auctions int, ads []OutstandingAd, unit float64) float64 {
	return new(ThrottleDP).Bid(bid, budget, auctions, ads, unit)
}

// ThrottleDP holds the two grid buffers of ExactThrottledBidDP so a caller
// that throttles many advertisers a round (the engine's leaf scoring, one
// per worker) reuses them: Bid is ExactThrottledBidDP, bit for bit, without
// its 1 + len(ads) allocations once the buffers have grown to the largest
// grid seen. The zero value is ready to use; not safe for concurrent use.
type ThrottleDP struct {
	dist, next []float64
}

// Bid computes b̂ on the currency grid; see ExactThrottledBidDP.
func (d *ThrottleDP) Bid(bid, budget float64, auctions int, ads []OutstandingAd, unit float64) float64 {
	if auctions < 1 || unit <= 0 {
		panic("budget: invalid auctions or unit")
	}
	// S never exceeds the total outstanding value ω, so the grid needs only
	// min(β, ω) cells — crucial when budgets dwarf outstanding debt.
	omega := 0.0
	for _, ad := range ads {
		omega += ad.Price
	}
	cap := int(math.Round(math.Min(budget, omega) / unit))
	if len(d.dist) <= cap {
		d.dist = make([]float64, 2*(cap+1))
		d.next = make([]float64, 2*(cap+1))
	}
	dist, next := d.dist[:cap+1], d.next[:cap+1]
	clear(dist)
	dist[0] = 1
	for _, ad := range ads {
		step := int(math.Round(ad.Price / unit))
		clear(next)
		for s, p := range dist {
			if p == 0 {
				continue
			}
			hit := s + step
			if hit > cap {
				hit = cap // min(β, S) saturates at β
			}
			next[hit] += p * ad.CTR
			next[s] += p * (1 - ad.CTR)
		}
		dist, next = next, dist
	}
	m := float64(auctions)
	total := 0.0
	for s, p := range dist {
		if p == 0 {
			continue
		}
		// The max(0, ·) clamp mirrors the formula (and the enumeration
		// path): when the grid saturates at cap < β/unit — a budget that is
		// not a unit multiple — β − s·unit can go negative for outcomes whose
		// true spend S exceeds β, and those outcomes contribute 0, not a
		// negative bid.
		total += p * math.Min(bid, math.Max(0, budget-float64(s)*unit)/m)
	}
	return total
}

// DecayedCTR models an outstanding ad's click probability as decaying with
// the ad's age: ctr(t) = ctr0 · 2^(−age/halfLife), truncated to zero beyond
// horizon — the shape Section IV suggests, which lets old unclicked ads be
// discarded.
//
// Edge behavior: a non-positive ctr0, halfLife, or horizon yields 0 (an ad
// with no click mass, an instantly-decayed model, and an already-passed
// truncation point respectively — never NaN or ±Inf); a negative age is
// clamped to 0, treating the ad as just displayed.
func DecayedCTR(ctr0, age, halfLife, horizon float64) float64 {
	if ctr0 <= 0 || halfLife <= 0 || horizon <= 0 {
		return 0
	}
	if age < 0 {
		age = 0
	}
	if age >= horizon {
		return 0
	}
	return ctr0 * math.Exp2(-age/halfLife)
}
