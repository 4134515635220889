package core

import (
	"math/rand"
	"testing"

	"sharedwd/internal/pricing"
	"sharedwd/internal/sharedagg"
	"sharedwd/internal/workload"
)

// TestEngineStrategyEquivalence is the engine-level equivalence property:
// over 4 scenarios × 60 randomized rounds (random occurrence vectors, bid
// perturbation, budgets that exhaust mid-day, GSP and VCG, naive and
// throttled policies), every way of running the compiled plan — with and
// without mid-run plan hot-swaps — must produce RoundReports, Stats, and
// final per-advertiser accounting identical to the Independent engine's, a
// naive per-phrase scan that shares no plan code with them. Materialization
// counters are checked against the plain compiled engine (Independent counts
// a different cost and takes no part in that check).
//
// The inert-cache variant sets the deprecated Config.IncrementalCache, which
// benchmark workloads still set: its Stats must equal the plain compiled
// engine's field for field, so those workloads measure the one path.
func TestEngineStrategyEquivalence(t *testing.T) {
	scenarios := []equivScenario{
		{"gsp-naive", pricing.GSP, Naive, 0},
		{"vcg-naive", pricing.VCG, Naive, 0},
		{"gsp-throttled", pricing.GSP, Throttled, 0},
		{"vcg-throttled-reserve", pricing.VCG, Throttled, 0.4},
	}
	variants := []equivVariant{
		resultRef: {name: "independent", independent: true},
		costRef:   {name: "compiled"},
		{name: "compiled-inert-cache", inertCache: true},
		{name: "compiled-swap", swap: true},
	}
	for si, sc := range scenarios {
		sc, seed := sc, int64(100+si)
		t.Run(sc.name, func(t *testing.T) {
			wcfg := workload.DefaultConfig()
			wcfg.NumAdvertisers, wcfg.NumPhrases, wcfg.NumTopics = 120, 16, 4
			// Small budgets: many advertisers exhaust mid-run.
			wcfg.MinBudget, wcfg.MaxBudget = 2, 20
			wcfg.Seed = seed
			runEquivalence(t, sc, wcfg, variants, 60)
		})
	}
}

// Every variant list starts with the two references: the Independent engine
// every report is compared with, and the plain compiled engine every shared
// variant's aggregation cost is compared with.
const (
	resultRef = iota
	costRef
)

type equivScenario struct {
	name    string
	rule    pricing.Rule
	policy  BudgetPolicy
	reserve float64
}

type equivVariant struct {
	name        string
	independent bool
	// inertCache sets the deprecated IncrementalCache field, which must
	// change nothing.
	inertCache bool
	// swap hot-swaps a freshly compiled plan (rotated rates) into the
	// engine every 20 rounds; results must be unchanged (Lemma 1).
	swap bool
}

// runEquivalence steps one engine per variant over the same randomized
// rounds and fails on the first report or account that differs from
// variants[resultRef]'s, or aggregation cost that differs from
// variants[costRef]'s. Every third round moves every world's bids the same
// way.
func runEquivalence(t *testing.T, sc equivScenario, wcfg workload.Config, variants []equivVariant, rounds int) {
	base := DefaultConfig()
	base.Pricing = sc.rule
	base.Policy = sc.policy
	base.Reserve = sc.reserve
	base.Sharing = SharedAggregation

	engines := make([]*Engine, len(variants))
	worlds := make([]*workload.Workload, len(variants))
	for i, v := range variants {
		cfg := base
		cfg.IncrementalCache = v.inertCache
		if v.independent {
			cfg.Sharing = Independent
		}
		// Each engine gets its own same-seed workload so identical
		// stepping consumes identical random streams.
		worlds[i] = workload.Generate(wcfg)
		eng, err := New(worlds[i], cfg)
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
	}

	rng := rand.New(rand.NewSource(wcfg.Seed * 7))
	occ := make([]bool, wcfg.NumPhrases)
	for round := 0; round < rounds; round++ {
		for q := range occ {
			occ[q] = rng.Float64() < 0.6
		}
		// The reference's report views its own engine's scratch, so the
		// other engines' Steps leave it intact.
		ref := engines[resultRef].Step(occ)
		refFull := 0
		for i := 1; i < len(engines); i++ {
			rep := engines[i].Step(occ)
			compareReports(t, variants[i].name, round, ref, rep)
			if i == costRef {
				refFull = rep.Materialized
			}
			// Swap variants run a structurally different (but
			// A-equivalent) plan after their first hot-swap, so
			// their aggregation cost legitimately diverges; results
			// above must still match exactly.
			exemptCost := variants[i].swap && round >= 20
			if rep.Materialized != refFull && !exemptCost {
				t.Fatalf("%s round %d: materialized %d, want %d",
					variants[i].name, round, rep.Materialized, refFull)
			}
			if t.Failed() {
				t.FailNow()
			}
		}
		if round%3 == 2 {
			for _, w := range worlds {
				w.PerturbBids(0.15)
			}
		}
		// Hot-swap a replan into the swap variants mid-run: a plan
		// rebuilt under rotated rates has different structure but,
		// being A-equivalent, must not perturb any later report.
		if round%20 == 19 {
			for i, v := range variants {
				if !v.swap {
					continue
				}
				base := engines[i].PlanInstance()
				rates := make([]float64, len(base.Queries))
				for q := range rates {
					rates[q] = base.Queries[(q+round)%len(rates)].Rate + 0.01
				}
				inst2, _, prog2, err := sharedagg.BuildCompiledWithRates(base, rates)
				if err != nil {
					t.Fatal(err)
				}
				if err := engines[i].InstallPlan(inst2, prog2); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	for _, e := range engines {
		e.Drain()
	}
	refStats := engines[resultRef].Stats()
	costStats := engines[costRef].Stats()
	for i := 1; i < len(engines); i++ {
		es := engines[i].Stats()
		if variants[i].inertCache && es != costStats {
			t.Errorf("%s: final stats %+v, want the compiled engine's %+v", variants[i].name, es, costStats)
		}
		if es.NodesMaterialized != costStats.NodesMaterialized && !variants[i].swap {
			t.Errorf("%s: lifetime materialized %d, want %d",
				variants[i].name, es.NodesMaterialized, costStats.NodesMaterialized)
		}
		// Independent counts a different aggregation cost.
		es.NodesMaterialized = refStats.NodesMaterialized
		if es != refStats {
			t.Errorf("%s: final stats %+v, want %+v", variants[i].name, es, refStats)
		}
		for a := range worlds[0].Advertisers {
			if got, want := engines[i].Spent(a), engines[resultRef].Spent(a); got != want {
				t.Errorf("%s: advertiser %d spent %v, want %v", variants[i].name, a, got, want)
				break
			}
		}
	}
}

func compareReports(t *testing.T, name string, round int, want, got RoundReport) {
	t.Helper()
	if got.Round != want.Round {
		t.Errorf("%s round %d: report round %d, want %d", name, round, got.Round, want.Round)
	}
	if len(got.Clicks) != len(want.Clicks) {
		t.Errorf("%s round %d: %d clicks, want %d", name, round, len(got.Clicks), len(want.Clicks))
		return
	}
	for i := range want.Clicks {
		if got.Clicks[i] != want.Clicks[i] {
			t.Errorf("%s round %d: click %d = %+v, want %+v", name, round, i, got.Clicks[i], want.Clicks[i])
			return
		}
	}
	if len(got.Auctions) != len(want.Auctions) {
		t.Errorf("%s round %d: %d auctions with slots, want %d", name, round, len(got.Auctions), len(want.Auctions))
		return
	}
	for q, wantSlots := range want.Auctions {
		gotSlots, ok := got.Auctions[q]
		if !ok || len(gotSlots) != len(wantSlots) {
			t.Errorf("%s round %d phrase %d: slots %v, want %v", name, round, q, gotSlots, wantSlots)
			return
		}
		for j := range wantSlots {
			if gotSlots[j] != wantSlots[j] {
				t.Errorf("%s round %d phrase %d slot %d: %+v, want %+v",
					name, round, q, j, gotSlots[j], wantSlots[j])
				return
			}
		}
	}
}
