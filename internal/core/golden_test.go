package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"

	"sharedwd/internal/budget"
	"sharedwd/internal/workload"
)

// TestEngineGolden pins what four engines do, bit for bit, over 3,000 seeded
// rounds: every round's clicks in arrival order, every occurring auction's
// slots and prices in phrase order, and the final Stats, hashed into one
// digest per engine. The digests were recorded before the click simulator's
// storage was rewritten, so a change to the simulator's RNG consumption,
// click order, Click.Round or outstanding-ad order — or to anything else an
// engine's output depends on — moves a digest.
//
// Budgets bind (2 to 20 against bids up to 10), and the throttled engines
// enumerate up to three outstanding ads and run the DP beyond, so Section
// IV's slow path runs in both arms. A changed digest is a behaviour change:
// find its cause rather than re-recording it.
func TestEngineGolden(t *testing.T) {
	const rounds = 3000
	cases := []struct {
		name    string
		policy  BudgetPolicy
		sharing SharingMode
		paced   bool // ledger, pacer and lifecycle attached
		want    string
	}{
		{name: "naive", policy: Naive, want: "aac8e067bc747048"},
		{name: "throttled-binding", policy: Throttled, want: "be0ba5a77ba422e1"},
		{name: "throttled-paced", policy: Throttled, paced: true, want: "361adb09cc708b44"},
		{name: "independent", policy: Throttled, sharing: Independent, want: "0a62bdb0f9fd612b"},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wcfg := workload.DefaultConfig()
			wcfg.NumAdvertisers, wcfg.NumPhrases, wcfg.NumTopics = 200, 16, 4
			wcfg.MinBudget, wcfg.MaxBudget = 2, 20
			wcfg.Seed = int64(700 + ci)
			w := workload.Generate(wcfg)

			cfg := DefaultConfig()
			cfg.Policy = tc.policy
			cfg.Sharing = tc.sharing
			cfg.ThrottleEnumLimit = 3
			if tc.paced {
				lc, err := workload.GenerateLifecycle(w, workload.LifecycleConfig{
					Rounds: rounds, ChurnFraction: 0.3, RefreshEvery: rounds / 3, Seed: wcfg.Seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				budgets := make([]float64, len(w.Advertisers))
				for i, a := range w.Advertisers {
					budgets[i] = a.Budget
				}
				ledger := budget.NewLedger(budgets)
				pcfg := budget.DefaultPacerConfig()
				pcfg.Horizon = rounds
				pacer, err := budget.NewPacer(ledger, budgets, pcfg, lc)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Ledger, cfg.Pacer, cfg.Lifecycle = ledger, pacer, lc
			}
			e, err := New(w, cfg)
			if err != nil {
				t.Fatal(err)
			}

			h := sha256.New()
			rng := rand.New(rand.NewSource(wcfg.Seed))
			occ := make([]bool, wcfg.NumPhrases)
			enum, dp := 0, 0
			var ads []budget.OutstandingAd
			for r := 0; r < rounds; r++ {
				for q := range occ {
					occ[q] = rng.Float64() < 0.5
				}
				rep := e.Step(occ)
				hashReport(h, rep, len(occ))
				if tc.policy == Throttled {
					en, d := throttlePaths(t, e, occ, &ads)
					enum, dp = enum+en, dp+d
				}
				if r%4 == 3 {
					w.PerturbBids(0.15)
				}
			}
			if tc.policy == Throttled && (enum == 0 || dp == 0) {
				t.Fatalf("throttled %d bids by enumeration and %d by DP; want both arms", enum, dp)
			}
			st := e.Stats()
			if st.ClicksCharged == 0 || st.AdsDisplayed == 0 {
				t.Fatalf("stats %+v: the run charged or displayed nothing", st)
			}
			hashInts(h, st.Rounds, st.AuctionsResolved, st.NodesMaterialized, st.Candidates,
				st.ShortAuctions, st.Scored, st.ClicksCharged, st.ClicksForgiven, st.AdsDisplayed)
			hashFloats(h, st.Revenue, st.ForgivenValue)
			if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != tc.want {
				t.Fatalf("digest %s, want %s (stats %+v)", got, tc.want, st)
			}
		})
	}
}

// hashReport writes one round's observable outcome to h: the round, its
// clicks in order, then each occurring auction's slots in phrase order.
func hashReport(h hash.Hash, rep RoundReport, phrases int) {
	hashInts(h, rep.Round, len(rep.Clicks), rep.Materialized)
	for _, c := range rep.Clicks {
		hashInts(h, c.Advertiser, c.Displayed, c.Round)
		hashFloats(h, c.Price)
	}
	for q := 0; q < phrases; q++ {
		slots, ok := rep.Auctions[q]
		if !ok {
			continue
		}
		hashInts(h, q, len(slots))
		for _, s := range slots {
			hashInts(h, s.Slot, s.Advertiser)
			hashFloats(h, s.PricePaid)
		}
	}
}

func hashInts(h hash.Hash, vs ...int) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

func hashFloats(h hash.Hash, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}
