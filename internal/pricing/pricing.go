// Package pricing implements the per-click pricing rules the paper cites as
// consumers of winner determination: first-price, generalized second price
// (GSP, as used by Google and Yahoo!), and the laddered VCG prices of
// Aggarwal–Goel–Motwani for separable position auctions.
//
// All rules run *after* winner determination: they take the advertisers
// ranked by effective bid b_i·c_i and the descending slot factors d_j, and
// produce a per-click price for each filled slot. Every rule maintains the
// universal constraint that an advertiser is never charged more than his
// bid.
package pricing

import (
	"fmt"
)

// Ranked is one advertiser in effective-bid order (rank 0 = best). Bid is
// the stated (possibly throttled) per-click bid b_i; Quality is c_i.
type Ranked struct {
	ID      int
	Bid     float64
	Quality float64
}

func (r Ranked) effective() float64 { return r.Bid * r.Quality }

// Rule identifies a pricing rule.
type Rule int

// The supported pricing rules.
const (
	FirstPrice Rule = iota
	GSP
	VCG
)

// String returns the rule's conventional name.
func (r Rule) String() string {
	switch r {
	case FirstPrice:
		return "first-price"
	case GSP:
		return "GSP"
	case VCG:
		return "VCG"
	default:
		return fmt.Sprintf("Rule(%d)", int(r))
	}
}

// Prices computes the per-click price for each of the first k ranked
// advertisers under the rule. ranked must be sorted by descending effective
// bid and include, if available, at least one advertiser beyond the last
// slot (the price-setter); slotFactors must be descending and positive.
// The result has min(k, len(ranked)) entries, price[j] for slot j's winner.
func Prices(rule Rule, ranked []Ranked, slotFactors []float64) []float64 {
	return AppendPrices(nil, rule, ranked, slotFactors)
}

// AppendPrices is Prices writing into dst (appending after its length), for
// hot paths that reuse a price buffer across auctions. Steady-state calls
// with sufficient capacity perform no allocations for up to 16 slots.
func AppendPrices(dst []float64, rule Rule, ranked []Ranked, slotFactors []float64) []float64 {
	k := len(slotFactors)
	if k == 0 {
		return dst
	}
	for j := 1; j < k; j++ {
		if slotFactors[j] > slotFactors[j-1] {
			panic(fmt.Sprintf("pricing: slot factors not descending: %v", slotFactors))
		}
	}
	winners := k
	if len(ranked) < winners {
		winners = len(ranked)
	}
	base := len(dst)
	for j := 0; j < winners; j++ {
		dst = append(dst, 0)
	}
	prices := dst[base:]
	switch rule {
	case FirstPrice:
		for j := 0; j < winners; j++ {
			prices[j] = ranked[j].Bid
		}
	case GSP:
		// Winner j pays the minimum bid that keeps his position: the next
		// advertiser's effective bid scaled by his own quality.
		for j := 0; j < winners; j++ {
			if j+1 < len(ranked) {
				prices[j] = ranked[j+1].effective() / ranked[j].Quality
			} // else: no competitor below → reserve price 0
		}
	case VCG:
		// Laddered pricing (Aggarwal–Goel–Motwani): per-click prices built
		// bottom-up so each winner pays exactly the externality he imposes:
		//   p_k·c_k·d_k = b_{k+1}·c_{k+1}·d_k
		//   p_j·c_j·d_j = p_{j+1}·c_{j+1}·d_{j+1} + b_{j+1}·c_{j+1}·(d_j − d_{j+1})
		// expected[j] is p_j·c_j·d_j, the winner's total expected payment;
		// auctions of ≤ 16 slots use a stack buffer to stay allocation-free.
		var expBuf [16]float64
		var expected []float64
		if winners > len(expBuf) {
			expected = make([]float64, winners)
		} else {
			expected = expBuf[:winners]
		}
		for j := winners - 1; j >= 0; j-- {
			next := 0.0
			if j+1 < len(ranked) {
				dNext := 0.0
				if j+1 < winners {
					dNext = slotFactors[j+1]
					next = expected[j+1] + ranked[j+1].effective()*(slotFactors[j]-dNext)
				} else {
					// Losing advertiser j+1 would take the whole slot.
					next = ranked[j+1].effective() * slotFactors[j]
				}
			}
			expected[j] = next
			if slotFactors[j] > 0 && ranked[j].Quality > 0 {
				prices[j] = next / (ranked[j].Quality * slotFactors[j])
			}
		}
	default:
		panic(fmt.Sprintf("pricing: unknown rule %d", rule))
	}
	// Universal constraint: never charge above the bid. For GSP/VCG with a
	// correctly sorted ranking this is automatic; clamping also guards the
	// first-price path against caller error.
	for j := range prices {
		if prices[j] > ranked[j].Bid {
			prices[j] = ranked[j].Bid
		}
		if prices[j] < 0 {
			prices[j] = 0
		}
	}
	return dst
}

// AppendFilterReserve appends to dst the prefix-preserving sub-ranking of
// advertisers whose bids meet the reserve price — the participants of an
// auction with a reserve. The input must already be sorted by effective
// bid.
func AppendFilterReserve(dst, ranked []Ranked, reserve float64) []Ranked {
	for _, r := range ranked {
		if r.Bid >= reserve {
			dst = append(dst, r)
		}
	}
	return dst
}

// AppendPricesWithReserve prices the winners of an auction with a
// per-click reserve: sub-reserve bidders do not participate (and in
// particular do not set prices), every winner pays at least the reserve,
// and no winner ever pays above his bid. It appends the participants and
// their prices into caller-owned buffers (after their lengths; the returned
// slices are the appended portions, which for length-0 buffers are the
// grown buffers themselves). When reserve ≤ 0 the returned participants
// slice is `ranked` itself and dstParts is untouched, so the zero-reserve
// hot path copies nothing.
func AppendPricesWithReserve(dstParts []Ranked, dstPrices []float64, rule Rule, ranked []Ranked, slotFactors []float64, reserve float64) ([]Ranked, []float64) {
	participants := ranked
	if reserve > 0 {
		base := len(dstParts)
		dstParts = AppendFilterReserve(dstParts, ranked, reserve)
		participants = dstParts[base:]
	}
	base := len(dstPrices)
	dstPrices = AppendPrices(dstPrices, rule, participants, slotFactors)
	prices := dstPrices[base:]
	for j := range prices {
		if prices[j] < reserve {
			prices[j] = reserve
		}
		if prices[j] > participants[j].Bid {
			prices[j] = participants[j].Bid
		}
	}
	return participants, prices
}
