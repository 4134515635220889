package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"sharedwd/internal/budget"
	"sharedwd/internal/pricing"
	"sharedwd/internal/topk"
	"sharedwd/internal/workload"
)

// FuzzTickResolve drives one engine through a random interleaving of Tick
// and Resolve — any number of resolves per round, empty rounds included —
// with a ledger and a binding pacer attached, under Naive or Throttled. After
// every Resolve each occurring auction's winners and prices must equal a
// per-phrase sort of that resolve's reference round bids (referenceScores),
// priced by the same rule. For Throttled the reference reads the ads the
// round's earlier resolves displayed as outstanding at age 0; the test also
// checks directly that each of them is still in its advertiser's list. No
// advertiser may spend beyond its budget, and after Drain the ledger's
// settled total must equal the engine's revenue.
//
// The input picks the workload seed, the policy (bit 0 of policy), the
// pricing rule (bit 1) and the schedule: each byte of ops is one round,
// whose low two bits are its number of resolves (0–3); the occurrence sets
// come from the seed.
//
//	go test -run '^$' -fuzz FuzzTickResolve -fuzztime 10s ./internal/core
func FuzzTickResolve(f *testing.F) {
	f.Add(uint8(1), uint8(0), []byte{1, 2, 3, 0, 1, 1, 2, 3, 3, 0, 0, 1})
	f.Add(uint8(2), uint8(1), []byte{3, 3, 3, 3, 0, 2, 1, 3, 2, 1, 0, 3, 3})
	f.Add(uint8(3), uint8(3), []byte{2, 0, 0, 2, 1, 3, 1, 2, 3, 1, 2, 3, 3, 3, 3, 2, 1})
	f.Add(uint8(4), uint8(2), []byte{0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, seed, policy uint8, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		wcfg := workload.DefaultConfig()
		wcfg.NumAdvertisers, wcfg.NumPhrases, wcfg.NumTopics = 60, 8, 2
		wcfg.MinBudget, wcfg.MaxBudget = 1, 6 // budgets bind within a few rounds
		wcfg.Seed = int64(seed)
		w := workload.Generate(wcfg)
		budgets := make([]float64, len(w.Advertisers))
		for i, a := range w.Advertisers {
			budgets[i] = a.Budget
		}
		ledger := budget.NewLedger(budgets)
		pcfg := budget.DefaultPacerConfig()
		pcfg.Horizon = 40
		pacer, err := budget.NewPacer(ledger, budgets, pcfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Policy = Naive
		if policy&1 != 0 {
			cfg.Policy = Throttled
		}
		if policy&2 != 0 {
			cfg.Pricing = pricing.FirstPrice
		}
		cfg.ThrottleEnumLimit = 3
		cfg.ClickHorizon = 6
		cfg.Ledger, cfg.Pacer = ledger, pacer
		e, err := New(w, cfg)
		if err != nil {
			t.Fatal(err)
		}

		rng := rand.New(rand.NewSource(int64(seed)))
		occ := make([]bool, wcfg.NumPhrases)
		// shown[i] counts advertiser i's ads the open round's resolves have
		// displayed so far.
		shown := make([]int, len(w.Advertisers))
		var paths referencePaths
		for r, op := range ops {
			e.Tick()
			clear(shown)
			for k := 0; k < int(op&3); k++ {
				for q := range occ {
					occ[q] = rng.Float64() < 0.4
				}
				if cfg.Policy == Throttled {
					checkSameRoundOutstanding(t, e, shown)
				}
				rep := e.Resolve(occ)
				if rep.Round != r {
					t.Fatalf("round %d resolve %d: report names round %d", r, k, rep.Round)
				}
				roundBid, score := referenceScores(e, occ, &paths)
				for q, on := range occ {
					want := sortedSlots(e, q, roundBid, score)
					got := rep.Auctions[q]
					if !on {
						want = nil
					}
					if !slices.Equal(got, want) {
						t.Fatalf("round %d resolve %d phrase %d: slots %v, per-phrase sort %v", r, k, q, got, want)
					}
					for _, s := range got {
						if s.PricePaid > 0 && w.Advertisers[s.Advertiser].Quality*w.SlotFactors[s.Slot] > 0 {
							shown[s.Advertiser]++
						}
					}
				}
			}
			for i, b := range budgets {
				if s := ledger.Spent(i); s > b+1e-9 {
					t.Fatalf("round %d: advertiser %d spent %v of a %v budget", r, i, s, b)
				}
			}
		}
		e.Drain()
		if settled, revenue := ledger.TotalSpent(), e.Stats().Revenue; math.Abs(settled-revenue) > 1e-9*max(1, revenue) {
			t.Fatalf("ledger settled %v, engine revenue %v", settled, revenue)
		}
	})
}

// checkSameRoundOutstanding checks that every ad the open round's earlier
// resolves displayed is still in its advertiser's outstanding list at age 0,
// so the next resolve's Throttled bid accounts for it: the last shown[i] of
// i's outstanding ads must be age-0 ads, at their full click-through rate.
func checkSameRoundOutstanding(t *testing.T, e *Engine, shown []int) {
	t.Helper()
	for i, n := range shown {
		if n == 0 {
			continue
		}
		ads := e.clicks.AppendOutstanding(nil, i, e.Round()-1)
		if len(ads) < n {
			t.Fatalf("advertiser %d: %d ads shown this round, %d outstanding", i, n, len(ads))
		}
	}
}

// sortedSlots is phrase q's auction resolved on its own: every member with
// a positive reference score, sorted by (score, ID), the top k+1 priced by
// the engine's rule, and the slots filled down to the first bid that is not
// positive.
func sortedSlots(e *Engine, q int, roundBid, score []float64) []SlotResult {
	var entries []topk.Entry
	e.w.Interests[q].ForEach(func(i int) bool {
		if score[i] > 0 {
			entries = append(entries, topk.Entry{ID: i, Score: score[i]})
		}
		return true
	})
	slices.SortFunc(entries, func(a, b topk.Entry) int {
		if a.Less(b) {
			return -1
		}
		return 1
	})
	k := len(e.w.SlotFactors)
	entries = entries[:min(len(entries), k+1)]
	ranked := make([]pricing.Ranked, len(entries))
	for j, en := range entries {
		ranked[j] = pricing.Ranked{ID: en.ID, Bid: roundBid[en.ID], Quality: e.w.QualityFor(q, en.ID)}
	}
	parts, prices := pricing.AppendPricesWithReserve(nil, nil, e.cfg.Pricing, ranked, e.w.SlotFactors, e.cfg.Reserve)
	var slots []SlotResult
	for j := 0; j < len(prices) && j < k; j++ {
		if parts[j].Bid <= 0 {
			break
		}
		slots = append(slots, SlotResult{Slot: j, Advertiser: parts[j].ID, PricePaid: prices[j]})
	}
	return slots
}
