package core

import (
	"math"
	"math/rand"
	"testing"

	"sharedwd/internal/budget"
	"sharedwd/internal/pricing"
	"sharedwd/internal/workload"
)

// TestRoundScoresMatchReference pins leaf scoring against the loop the
// engine ran before it scored only the round's participants: count m_i for
// every advertiser over every occurring phrase, then ask the budget policy
// for each advertiser with m_i > 0 (referenceScores). Shared and Independent
// engines read one score slab, so the strategy equivalence test cannot see
// a scoring bug; this test checks the slab against the reference after
// every round.
//
// The engine writes a slab entry only for the advertisers it scores, and
// stamps them. Every stamped entry must be a participant's and must equal
// the reference bit for bit. Every participant left unstamped must have a
// reference score below the round's τ: shared mode may skip only the
// participants whose ceiling test proves they cannot be candidates.
// Independent mode must stamp every participant, and so must shared mode
// at τ forced to 0 (the tau-zero cases), where no score is below τ: there
// the comparison covers every participant's entry. The shared cases at
// their own τ must skip someone, or the skip went untested.
//
// Budgets are small enough to bind, and throttled engines take the DP beyond
// three outstanding ads, so the reference must observe the M-bound fast path
// failing for advertisers in two or more auctions, and both the enumeration
// and the DP arm running.
func TestRoundScoresMatchReference(t *testing.T) {
	cases := []struct {
		name      string
		policy    BudgetPolicy
		lifecycle bool
		paced     bool // ledger and pacer
		sharing   SharingMode
		reserve   float64
		tauZero   bool
	}{
		{name: "naive", policy: Naive},
		{name: "naive-lifecycle", policy: Naive, lifecycle: true},
		{name: "naive-paced-reserve", policy: Naive, lifecycle: true, paced: true, sharing: Independent, reserve: 0.4},
		{name: "throttled-reserve", policy: Throttled, reserve: 0.4},
		{name: "throttled-paced", policy: Throttled, lifecycle: true, paced: true, sharing: Independent},
		{name: "naive-paced-shared-reserve", policy: Naive, lifecycle: true, paced: true, reserve: 0.4},
		{name: "throttled-paced-shared", policy: Throttled, lifecycle: true, paced: true},
		{name: "naive-tau-zero", policy: Naive, lifecycle: true, tauZero: true},
		{name: "throttled-tau-zero", policy: Throttled, reserve: 0.4, tauZero: true},
	}
	const rounds = 240
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wcfg := workload.DefaultConfig()
			wcfg.NumAdvertisers, wcfg.NumPhrases, wcfg.NumTopics = 200, 16, 4
			wcfg.MinBudget, wcfg.MaxBudget = 2, 20
			wcfg.Seed = int64(300 + ci)
			w := workload.Generate(wcfg)

			cfg := DefaultConfig()
			cfg.Pricing = pricing.GSP
			cfg.Policy = tc.policy
			cfg.Sharing = tc.sharing
			cfg.Reserve = tc.reserve
			cfg.ThrottleEnumLimit = 3
			if tc.lifecycle {
				lc, err := workload.GenerateLifecycle(w, workload.LifecycleConfig{
					Rounds: rounds, ChurnFraction: 0.3, RefreshEvery: rounds / 3, Seed: wcfg.Seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				cfg.Lifecycle = lc
			}
			if tc.paced {
				budgets := make([]float64, len(w.Advertisers))
				for i, a := range w.Advertisers {
					budgets[i] = a.Budget
				}
				ledger := budget.NewLedger(budgets)
				pcfg := budget.DefaultPacerConfig()
				pcfg.Horizon = rounds
				pacer, err := budget.NewPacer(ledger, budgets, pcfg, cfg.Lifecycle)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Ledger, cfg.Pacer = ledger, pacer
			}
			e, err := New(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.tauZero {
				e.tauForced = new(float64)
			}

			rng := rand.New(rand.NewSource(wcfg.Seed))
			occ := make([]bool, wcfg.NumPhrases)
			var paths referencePaths
			skipped := 0
			for r := 0; r < rounds; r++ {
				for q := range occ {
					occ[q] = rng.Float64() < 0.5
				}
				e.Step(occ)
				// Step leaves what scoring read in place: displays charge
				// nothing (scoredOutstanding sets their ads aside), and the
				// pacer and lifecycle move only at the top of the next Step.
				wantBid, wantScore := referenceScores(e, occ, &paths)
				for i := range wantBid {
					stamped, part := e.scr.scoredAt[i] == e.scr.epoch, e.scr.part.Contains(i)
					switch {
					case stamped && !part:
						t.Fatalf("round %d advertiser %d: scored, but in no occurring auction", r, i)
					case stamped:
						if math.Float64bits(e.scr.roundBid[i]) != math.Float64bits(wantBid[i]) ||
							math.Float64bits(e.scr.score[i]) != math.Float64bits(wantScore[i]) {
							t.Fatalf("round %d advertiser %d: roundBid %v score %v, reference %v %v",
								r, i, e.scr.roundBid[i], e.scr.score[i], wantBid[i], wantScore[i])
						}
					case part && tc.sharing == Independent:
						t.Fatalf("round %d advertiser %d: Independent mode skipped a participant", r, i)
					case part:
						if !(wantScore[i] < e.scr.tau) {
							t.Fatalf("round %d advertiser %d: skipped with reference score %v, not below τ = %v", r, i, wantScore[i], e.scr.tau)
						}
						skipped++
					}
				}
				if r%4 == 3 {
					w.PerturbBids(0.15)
				}
			}
			t.Logf("reference paths %+v, %d participants skipped", paths, skipped)
			if tc.sharing == SharedAggregation && !tc.tauZero && skipped == 0 {
				t.Fatal("shared mode skipped no participant; the ceiling test went untested")
			}
			if paths.scored == 0 {
				t.Fatal("no advertiser scored above zero")
			}
			if tc.policy == Naive && paths.capped == 0 {
				t.Fatal("no Naive bid was capped by its remaining budget")
			}
			if tc.policy == Throttled && (paths.missM == 0 || paths.enum == 0 || paths.dp == 0) {
				t.Fatalf("reference paths %+v: want the M bound to miss for m_i ≥ 2, and both the enumeration and the DP arm", paths)
			}
		})
	}
}

// referencePaths counts the reference's branches over a run: positive
// scores, Naive bids capped by the remaining budget, Throttled advertisers
// in two or more auctions whose bid fails the fast-path test at the round's
// auction count M, and the slow path's arms.
type referencePaths struct {
	scored, capped, missM, enum, dp int
}

// referenceScores is the per-advertiser scoring loop, kept as the oracle for
// the engine's participant-only one: m_i counted over every occurring
// phrase's interest set, and the policy asked for every advertiser in at
// least one auction.
func referenceScores(e *Engine, occurring []bool, paths *referencePaths) (roundBid, score []float64) {
	n := len(e.w.Advertisers)
	m := make([]int, n)
	auctions := 0
	for q, occ := range occurring {
		if !occ {
			continue
		}
		auctions++
		e.w.Interests[q].ForEach(func(i int) bool {
			m[i]++
			return true
		})
	}
	roundBid, score = make([]float64, n), make([]float64, n)
	for i, a := range e.w.Advertisers {
		if m[i] == 0 || !e.active[i] {
			continue
		}
		bid := a.Bid
		if e.cfg.Pacer != nil {
			bid *= e.cfg.Pacer.Factor(i)
		}
		if bid <= 0 {
			continue
		}
		roundBid[i] = referencePolicyBid(e, occurring, i, bid, m[i], auctions, paths)
		score[i] = roundBid[i] * a.Quality
		if score[i] > 0 {
			paths.scored++
		}
	}
	return roundBid, score
}

// referencePolicyBid is the round bid under the budget policy, computed from
// the exact m_i: min(b_i, β_i) for Naive, the paper's fast path and then
// exact enumeration or the DP for Throttled, capped at the paced bid.
func referencePolicyBid(e *Engine, occurring []bool, i int, bid float64, m, auctions int, paths *referencePaths) float64 {
	remaining := e.Remaining(i)
	if remaining <= 0 {
		return 0
	}
	if e.cfg.Policy == Naive {
		if bid < remaining {
			return bid
		}
		paths.capped++
		return remaining
	}
	ads := scoredOutstanding(nil, e, occurring, i)
	omega := 0.0
	for _, a := range ads {
		omega += a.Price
	}
	if m >= 2 && omega > remaining-float64(auctions)*bid {
		paths.missM++
	}
	if omega <= remaining-float64(m)*bid {
		return bid
	}
	if len(ads) <= e.cfg.ThrottleEnumLimit {
		paths.enum++
		return min(bid, budget.ExactThrottledBid(bid, remaining, m, ads))
	}
	paths.dp++
	return min(bid, budget.ExactThrottledBidDP(bid, remaining, m, ads, e.cfg.ThrottleUnit))
}

// scoredOutstanding appends to dst advertiser i's outstanding ads as the
// scoring phase of the round Step just resolved saw them: at that round's
// age, and without the ads the round itself displayed afterwards. Those are
// the last of i's ads in display order, and each is outstanding at age 0
// exactly when its price and ctr are positive.
func scoredOutstanding(dst []budget.OutstandingAd, e *Engine, occurring []bool, i int) []budget.OutstandingAd {
	dst = e.clicks.AppendOutstanding(dst, i, e.round-1)
	for q, occ := range occurring {
		if !occ {
			continue
		}
		for _, s := range e.scr.slots[q] {
			if s.Advertiser == i && s.PricePaid > 0 && e.w.Advertisers[i].Quality*e.w.SlotFactors[s.Slot] > 0 {
				dst = dst[:len(dst)-1]
			}
		}
	}
	return dst
}
