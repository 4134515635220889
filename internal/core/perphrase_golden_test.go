package core

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"sharedwd/internal/budget"
	"sharedwd/internal/workload"
)

// TestPerPhraseGolden pins what the per-phrase-quality (Section III) regime
// does under the naive policy, bit for bit, over 3,000 seeded rounds: every
// round's clicks and every occurring auction's slots and prices, the final
// counters and every advertiser's spend, hashed into one digest per case.
// The digests were recorded from the standalone Section III round loop that
// the engine's sorted resolver replaced; a changed digest is a behaviour
// change, not a number to re-record.
//
// The plain case samples occurrence from the workload's search rates; the
// paced case draws it from its own stream and attaches a ledger, a pacer and
// a lifecycle schedule. Budgets bind in both.
func TestPerPhraseGolden(t *testing.T) {
	const rounds = 3000
	cases := []struct {
		name  string
		paced bool
		want  string
	}{
		{name: "plain", want: "566fa303f74c9ccb"},
		{name: "paced", paced: true, want: "61cb67c1ad92a6e1"},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wcfg := workload.DefaultConfig()
			wcfg.NumAdvertisers, wcfg.NumPhrases, wcfg.NumTopics = 200, 16, 4
			wcfg.MinBudget, wcfg.MaxBudget = 2, 20
			wcfg.PerPhraseQuality = true
			wcfg.Seed = int64(900 + ci)
			w := workload.Generate(wcfg)

			cfg := DefaultConfig()
			cfg.Policy = Naive
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
			for r := 0; r < rounds; r++ {
				var rep RoundReport
				if tc.paced {
					for q := range occ {
						occ[q] = rng.Float64() < 0.5
					}
					rep = e.Step(occ)
				} else {
					rep = e.Step(nil)
				}
				hashReport(h, rep, len(occ))
				if r%4 == 3 {
					w.PerturbBids(0.15)
				}
			}
			st := e.Stats()
			if st.ClicksCharged == 0 || st.AdsDisplayed == 0 {
				t.Fatalf("stats %+v: the run charged or displayed nothing", st)
			}
			hashInts(h, st.Rounds, st.AuctionsResolved, st.SortedAccesses, st.MergePulls,
				st.ClicksCharged, st.AdsDisplayed)
			hashFloats(h, st.Revenue)
			for i := range w.Advertisers {
				hashFloats(h, e.Spent(i))
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != tc.want {
				t.Fatalf("digest %s, want %s (stats %+v)", got, tc.want, st)
			}
		})
	}
}
