package core

import (
	"math/rand"
	"testing"

	"sharedwd/internal/plan"
	"sharedwd/internal/pricing"
	"sharedwd/internal/sharedagg"
	"sharedwd/internal/workload"
)

// TestEngineStrategyEquivalence is the engine-level equivalence property:
// over 4 scenarios × 60 randomized rounds (random occurrence vectors, bid
// perturbation, budgets that exhaust mid-day, GSP and VCG, naive and
// throttled policies), every way of running the compiled plan — full runs and
// the incremental cache, each with and without mid-run plan hot-swaps — must
// produce RoundReports, Stats, and final per-advertiser accounting identical
// to the Independent engine's, a naive per-phrase scan that shares no plan
// code with them. Materialization counters are checked against the cache-off
// compiled engine: every shared variant's Materialized + Cached must equal
// its Materialized exactly (Independent counts a different cost and takes no
// part in that check).
//
// The cold-steady sub-tests drive the compiled-incremental strategies
// across the cache governor's fallback in both directions: the bid stream
// alternates stretches where every bid moves every round with stretches
// where one advertiser re-bids every other round on average, each long
// enough for the engine to drop to full runs and to probe its way back, and
// every round must still match the two references (which have no cache to
// leave). They run on an 800 × 8 universe whose program keeps shared
// instructions after fusion (asserted), so the cache holds shared runs as
// well as query outputs.
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
		{name: "compiled-incremental", incremental: true},
		{name: "compiled-swap", swap: true},
		{name: "compiled-incremental-swap", incremental: true, swap: true},
	}
	for si, sc := range scenarios {
		sc, seed := sc, int64(100+si)
		t.Run(sc.name, func(t *testing.T) {
			// Small budgets: many advertisers exhaust mid-run.
			runEquivalence(t, sc, equivUniverse(seed, 2, 20), variants, 60, func(round int, w *workload.Workload, _ *rand.Rand) {
				if round%3 == 2 {
					w.PerturbBids(0.15)
				}
			}, nil)
		})
	}

	fallbackVariants := []equivVariant{
		resultRef: variants[resultRef],
		costRef:   variants[costRef],
		{name: "compiled-incremental", incremental: true},
	}
	const cold, steady = 48, 112 // rounds per stretch; cold, steady, cold, steady
	for si, sc := range scenarios {
		if sc.name == "vcg-naive" {
			continue
		}
		sc, seed := sc, int64(200+si)
		t.Run(sc.name+"/cold-steady", func(t *testing.T) {
			isCold := func(round int) bool { return round%(cold+steady) < cold }
			// Naive budgets exhaust through the run. Throttled budgets must
			// not bind: a constrained advertiser's b̂ moves every round with
			// its ageing outstanding ads and its m, so a binding throttled
			// engine is cold whatever the bid stream does (the 60-round
			// scenarios above cover binding budgets).
			minBudget, maxBudget := 10.0, 100.0
			if sc.policy == Throttled {
				minBudget, maxBudget = 2000, 4000
			}
			// bypassedAt[i][r]: variant i resolved round r on the fallback.
			bypassedAt := make([][]bool, len(fallbackVariants))
			bypassedBefore := make([]int, len(fallbackVariants))
			// An incremental instruction is dirty when any of its leaves
			// moved, and fusion leaves instructions of hundreds of leaves, so
			// a steady stretch is a fixed handful of re-bids a round rather
			// than a share of the universe: 1 % of 800 re-bids dirties
			// nearly every instruction every round.
			const steadyRebids = 0.5
			wcfg := equivUniverse(seed, minBudget, maxBudget)
			wcfg.NumAdvertisers, wcfg.NumPhrases, wcfg.NumTopics = 800, 8, 2
			engines := runEquivalence(t, sc, wcfg, fallbackVariants, 2*(cold+steady),
				func(round int, w *workload.Workload, pick *rand.Rand) {
					if isCold(round) {
						w.PerturbBids(0.15)
						return
					}
					for i := range w.Advertisers {
						if pick.Float64() < steadyRebids/float64(len(w.Advertisers)) {
							w.Advertisers[i].Bid *= 1 + 0.15*(pick.Float64()*2-1)
						}
					}
				},
				func(round int, engines []*Engine) {
					for i, e := range engines {
						bypassedAt[i] = append(bypassedAt[i], e.Stats().CacheBypassedRounds > bypassedBefore[i])
						bypassedBefore[i] = e.Stats().CacheBypassedRounds
					}
				})
			for i, v := range fallbackVariants {
				if !v.incremental {
					continue
				}
				at := bypassedAt[i]
				for start := 0; start < len(at); start += cold + steady {
					n := 0
					for _, bypassed := range at[start : start+cold] {
						if bypassed {
							n++
						}
					}
					if n < cold/2 {
						t.Errorf("%s: %d of the %d cold rounds from %d ran on the fallback, want most", v.name, n, cold, start)
					}
					// The engine is back on its cache well before the steady
					// stretch ends, and stays there.
					for r := start + cold + steady/2; r < start+cold+steady; r++ {
						if at[r] {
							t.Errorf("%s: steady round %d still on the fallback", v.name, r)
							break
						}
					}
				}
				if st := engines[i].Stats(); st.CacheBypassedRounds == 0 || st.NodesCached == 0 {
					t.Errorf("%s: %d bypassed rounds, %d cached nodes — the stream did not exercise both paths",
						v.name, st.CacheBypassedRounds, st.NodesCached)
				}
				if shared := sharedInstructions(engines[i].runner.Program()); shared == 0 {
					t.Errorf("%s: every shared node fused into its consumers; the fixture must keep some", v.name)
				}
			}
		})
	}
}

// sharedInstructions counts the program's instructions that compute no
// query: shared nodes large enough to survive fusion.
func sharedInstructions(prog *plan.Program) int {
	isQuery := make(map[int32]bool, len(prog.QueryNode))
	for _, id := range prog.QueryNode {
		isQuery[id] = true
	}
	n := 0
	for _, out := range prog.Out {
		if !isQuery[out] {
			n++
		}
	}
	return n
}

// Every variant list starts with the two references: the Independent engine
// every report is compared with, and the cache-off compiled engine every shared variant's aggregation cost is compared with.
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
	incremental bool
	independent bool
	// swap hot-swaps a freshly compiled plan (rotated rates) into the
	// engine every 20 rounds; results must be unchanged (Lemma 1), and an
	// incremental engine must start the new runner's cache clean.
	swap bool
}

// equivUniverse is the 120 × 16 universe the equivalence scenarios run on,
// with the given seed and budget range.
func equivUniverse(seed int64, minBudget, maxBudget float64) workload.Config {
	wcfg := workload.DefaultConfig()
	wcfg.NumAdvertisers, wcfg.NumPhrases, wcfg.NumTopics = 120, 16, 4
	wcfg.MinBudget, wcfg.MaxBudget = minBudget, maxBudget
	wcfg.Seed = seed
	return wcfg
}

// runEquivalence steps one engine per variant over the same randomized
// rounds and fails on the first report or account that differs from
// variants[resultRef]'s, or aggregation cost that differs from
// variants[costRef]'s. mutate moves one world's bids after each round; it is
// called once per variant with an identically seeded rng, so every world
// sees the same bid stream. after, when non-nil, observes the engines once
// every variant has stepped the round. The drained engines are returned.
func runEquivalence(t *testing.T, sc equivScenario, wcfg workload.Config, variants []equivVariant,
	rounds int, mutate func(round int, w *workload.Workload, pick *rand.Rand), after func(round int, engines []*Engine)) []*Engine {
	seed := wcfg.Seed

	base := DefaultConfig()
	base.Pricing = sc.rule
	base.Policy = sc.policy
	base.Reserve = sc.reserve
	base.Sharing = SharedAggregation

	engines := make([]*Engine, len(variants))
	worlds := make([]*workload.Workload, len(variants))
	picks := make([]*rand.Rand, len(variants))
	for i, v := range variants {
		cfg := base
		cfg.IncrementalCache = v.incremental
		if v.independent {
			cfg.Sharing = Independent
		}
		// Each engine gets its own same-seed workload so identical
		// stepping consumes identical random streams.
		worlds[i] = workload.Generate(wcfg)
		picks[i] = rand.New(rand.NewSource(seed * 13))
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
			if got := rep.Materialized + rep.Cached; got != refFull && !exemptCost {
				t.Fatalf("%s round %d: materialized %d + cached %d, want %d total",
					variants[i].name, round, rep.Materialized, rep.Cached, refFull)
			}
			if !variants[i].incremental && rep.Cached != 0 {
				t.Fatalf("%s round %d: non-incremental engine reported %d cached nodes",
					variants[i].name, round, rep.Cached)
			}
			if t.Failed() {
				t.FailNow()
			}
		}
		if after != nil {
			after(round, engines)
		}
		for i, w := range worlds {
			mutate(round, w, picks[i])
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
	fullCost := engines[costRef].Stats().NodesMaterialized
	for i := 1; i < len(engines); i++ {
		es := engines[i].Stats()
		if es.NodesMaterialized+es.NodesCached != fullCost && !variants[i].swap {
			t.Errorf("%s: lifetime materialized %d + cached %d, want %d",
				variants[i].name, es.NodesMaterialized, es.NodesCached, fullCost)
		}
		// How the aggregation cost splits is the strategy's own business.
		es.NodesMaterialized, es.NodesCached, es.CacheBypassedRounds = refStats.NodesMaterialized, refStats.NodesCached, refStats.CacheBypassedRounds
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
	return engines
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
