package main

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"sharedwd/internal/core"
	"sharedwd/internal/serr"
	"sharedwd/internal/server"
	"sharedwd/internal/workload"
)

// The oracle is an independent statement of what an auction's outcome must
// be, in the shape of SNIPPETS.md Snippet 3 (get_winners +
// get_payments_per_click): per phrase, sort the interested advertisers by
// bid × quality, take k, price by GSP. It shares no code with the engine's
// plan, kernels or pricing package.

const priceTol = 1e-9

type candidate struct {
	id           int
	bid, quality float64
}

func (c candidate) score() float64 { return c.bid * c.quality }

// oracleAuction resolves phrase q given each advertiser's bid for the round
// (0 = not bidding). scratch is reused across calls.
func oracleAuction(w *workload.Workload, q int, bid func(i int) float64, scratch []candidate) ([]core.SlotResult, []candidate) {
	cands := scratch[:0]
	w.Interests[q].ForEach(func(i int) bool {
		if b := bid(i); b > 0 {
			cands = append(cands, candidate{id: i, bid: b, quality: w.Advertisers[i].Quality})
		}
		return true
	})
	sort.Slice(cands, func(a, b int) bool {
		sa, sb := cands[a].score(), cands[b].score()
		if sa != sb {
			return sa > sb
		}
		return cands[a].id < cands[b].id
	})
	var slots []core.SlotResult
	for j := 0; j < len(w.SlotFactors) && j < len(cands); j++ {
		// GSP: the least bid that keeps the position — the next advertiser's
		// score over the winner's own quality — and never above the bid.
		price := 0.0
		if j+1 < len(cands) {
			price = math.Min(cands[j].bid, cands[j+1].score()/cands[j].quality)
		}
		slots = append(slots, core.SlotResult{Slot: j, Advertiser: cands[j].id, PricePaid: price})
	}
	return slots, cands
}

func sameSlots(got, want []core.SlotResult) error {
	if len(got) != len(want) {
		return fmt.Errorf("filled %d slots, oracle %d", len(got), len(want))
	}
	for j := range want {
		g, o := got[j], want[j]
		if g.Slot != o.Slot || g.Advertiser != o.Advertiser {
			return fmt.Errorf("slot %d: advertiser %d in slot %d, oracle advertiser %d", j, g.Advertiser, g.Slot, o.Advertiser)
		}
		if math.Abs(g.PricePaid-o.PricePaid) > priceTol*math.Max(1, o.PricePaid) {
			return fmt.Errorf("slot %d: price %.12g, oracle %.12g", j, g.PricePaid, o.PricePaid)
		}
	}
	return nil
}

// checkRound compares every auction of one engine round with the oracle.
// It runs after Step: bids, the ledger and the pacer's factors still hold
// the values Step used, because Step charges clicks before it scores and
// nothing else moves them until the next call.
func checkRound(w *workload.Workload, occ []bool, rep core.RoundReport, bid func(i int) float64, scratch []candidate) ([]candidate, error) {
	for q, on := range occ {
		if !on {
			continue
		}
		var want []core.SlotResult
		want, scratch = oracleAuction(w, q, bid, scratch)
		if err := sameSlots(rep.Auctions[q], want); err != nil {
			return scratch, fmt.Errorf("round %d phrase %d: %w", rep.Round, q, err)
		}
	}
	for q := range rep.Auctions {
		if !occ[q] {
			return scratch, fmt.Errorf("round %d: auction for phrase %d, which did not occur", rep.Round, q)
		}
	}
	return scratch, nil
}

// query is one generated search query and the phrase it must match
// (-1 for junk, which must be answered ErrNoAuction).
type query struct {
	text   string
	phrase int
}

// checkReply validates one serving reply against what can be known from
// outside while the server owns the bids: the phrase, that winners are
// distinct members of the phrase's interest set in slot order, that prices
// lie in [0, MaxBid], and that price × quality — the next-ranked score under
// GSP — does not increase down the slots. ref is a private copy of the
// workload that the server never sees.
func checkReply(ref *workload.Workload, q query, res server.Result, err error) error {
	if q.phrase < 0 {
		if !errors.Is(err, serr.ErrNoAuction) {
			return fmt.Errorf("junk query %q answered %v, want ErrNoAuction", q.text, err)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("query %q: %w", q.text, err)
	}
	if res.Phrase != q.phrase {
		return fmt.Errorf("query %q matched phrase %d, want %d", q.text, res.Phrase, q.phrase)
	}
	if len(res.Slots) > len(ref.SlotFactors) {
		return fmt.Errorf("query %q: %d slots filled of %d", q.text, len(res.Slots), len(ref.SlotFactors))
	}
	prev := math.Inf(1)
	for j, s := range res.Slots {
		if s.Slot != j {
			return fmt.Errorf("query %q: slot %d at position %d", q.text, s.Slot, j)
		}
		if s.Advertiser < 0 || s.Advertiser >= len(ref.Advertisers) || !ref.Interests[q.phrase].Contains(s.Advertiser) {
			return fmt.Errorf("query %q: winner %d is not interested in phrase %d", q.text, s.Advertiser, q.phrase)
		}
		for _, t := range res.Slots[:j] {
			if t.Advertiser == s.Advertiser {
				return fmt.Errorf("query %q: advertiser %d wins twice", q.text, s.Advertiser)
			}
		}
		if s.PricePaid < 0 || s.PricePaid > ref.Cfg.MaxBid+priceTol {
			return fmt.Errorf("query %q: price %.6g outside [0, %.6g]", q.text, s.PricePaid, ref.Cfg.MaxBid)
		}
		next := s.PricePaid * ref.Advertisers[s.Advertiser].Quality
		if next > prev*(1+1e-9)+priceTol {
			return fmt.Errorf("query %q: price x quality rises at slot %d (%.9g after %.9g)", q.text, j, next, prev)
		}
		prev = next
	}
	return nil
}

// checkAccounting requires, after drain, that every submitted query has
// exactly one outcome and that what the ledger settled is what the engines
// report as revenue.
func checkAccounting(m server.Metrics, ledgerSpent float64) error {
	if sum := m.Answered + m.Unmatched + m.Shed + m.TimedOut + m.Expired; m.Submitted != sum {
		return fmt.Errorf("submitted %d != answered %d + unmatched %d + shed %d + timed out %d + expired %d",
			m.Submitted, m.Answered, m.Unmatched, m.Shed, m.TimedOut, m.Expired)
	}
	if diff := math.Abs(ledgerSpent - m.Engine.Revenue); diff > 1e-6*math.Max(1, ledgerSpent) {
		return fmt.Errorf("ledger settled %.6f, engines report revenue %.6f", ledgerSpent, m.Engine.Revenue)
	}
	return nil
}
