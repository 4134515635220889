package core

import (
	"math"
	"testing"

	"sharedwd/internal/workload"
)

// FuzzThresholdRound checks the shared threshold pass at an arbitrary τ
// against its τ = +Inf twin and the Independent scan. The input picks
// a small workload (seed), the phrases occurring in each of four rounds
// (occBits, rotated by seven bits a round), the forced τ — any float64, NaN
// and ±Inf included — and the scale of the bid perturbation applied before
// each round. An odd seed also sets every quality to 1 and rounds every bid
// to a multiple of 0.5, so scores tie often and the (score, ID) order is
// exercised; seed bit 1 selects the Throttled policy, so the ceiling test
// also skips participants in front of throttledBid. Three engines step the
// same rounds and must produce identical ones: the engine at τ; its twin at
// τ = +Inf, which leaves every phrase short, so it skips every participant's
// scoring and runs only on-demand scoring and scanPhrase; and an Independent
// twin, which scores every participant up front. Both twins resolve every
// phrase with scanPhrase, so they cannot catch a bug in it: the Lemma-1
// oracle of TestEngineStrategyEquivalence does.
//
//	go test -run '^$' -fuzz FuzzThresholdRound -fuzztime 10s ./internal/core
func FuzzThresholdRound(f *testing.F) {
	f.Add(uint8(1), uint64(0xF0F0_F0F0_F0F0_F0F0), 0.0, 0.05)
	f.Add(uint8(2), uint64(0xFFFF_FFFF_FFFF_FFFF), 2.5, 0.05)
	f.Add(uint8(3), uint64(0x1234_5678_9ABC_DEF0), 2.5, 0.5)
	f.Add(uint8(4), uint64(0x0000_0000_0000_0001), 0.3, 0.0)
	f.Add(uint8(5), uint64(0xAAAA_AAAA_AAAA_AAAA), math.Inf(1), 1.0)
	f.Add(uint8(6), uint64(0x5555_5555_5555_5555), math.NaN(), 0.2)
	f.Add(uint8(7), uint64(0xDEAD_BEEF_DEAD_BEEF), -1.0, 0.1)
	f.Fuzz(func(t *testing.T, seed uint8, occBits uint64, tau, scale float64) {
		if math.IsNaN(scale) || math.IsInf(scale, 0) {
			scale = 0
		}
		scale = math.Mod(math.Abs(scale), 1)
		ties := seed%2 == 1
		throttled := seed&2 != 0

		wcfg := workload.DefaultConfig()
		wcfg.NumAdvertisers, wcfg.NumPhrases, wcfg.NumTopics = 80, 12, 3
		wcfg.Seed = int64(seed)
		cfg := DefaultConfig()
		cfg.Policy = Naive
		if throttled {
			cfg.Policy = Throttled
		}
		// engines[2] is the Independent twin.
		var worlds [3]*workload.Workload
		var engines [3]*Engine
		for i := range engines {
			worlds[i] = workload.Generate(wcfg)
			if ties {
				for a := range worlds[i].Advertisers {
					worlds[i].Advertisers[a].Quality = 1
				}
			}
			cfg.Sharing = SharedAggregation
			if i == 2 {
				cfg.Sharing = Independent
			}
			eng, err := New(worlds[i], cfg)
			if err != nil {
				t.Fatal(err)
			}
			engines[i] = eng
		}
		forced, twin := tau, math.Inf(1)
		engines[0].tauForced, engines[1].tauForced = &forced, &twin

		occ := make([]bool, wcfg.NumPhrases)
		for round := 0; round < 4; round++ {
			for q := range occ {
				occ[q] = occBits>>((q+7*round)%64)&1 == 1
			}
			for _, w := range worlds {
				w.PerturbBids(scale)
				if ties {
					for a := range w.Advertisers {
						adv := &w.Advertisers[a]
						adv.Bid = max(0.5, math.Round(2*adv.Bid)/2)
					}
				}
			}
			want := engines[2].Step(occ)
			compareReports(t, "τ = +Inf", round, want, engines[1].Step(occ))
			compareReports(t, "forced τ", round, want, engines[0].Step(occ))
			if t.Failed() {
				t.FailNow()
			}
		}
	})
}
