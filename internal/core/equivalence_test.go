package core

import (
	"math"
	"math/rand"
	"testing"

	"sharedwd/internal/pricing"
	"sharedwd/internal/workload"
)

// TestEngineStrategyEquivalence is the engine-level equivalence property:
// over 4 scenarios × 60 randomized rounds (random occurrence vectors, bid
// perturbation, budgets that exhaust mid-day, GSP and VCG, naive and
// throttled policies), every way of running the shared engine — the
// threshold pass at its own τ and at forced ones, the pure compiled plan,
// and a plan built for different search rates — must produce RoundReports,
// Stats, and final per-advertiser accounting identical to the Independent
// engine's, a naive per-phrase scan that shares no pass or plan code with
// them. Cost counters (NodesMaterialized, Candidates, ShortAuctions, Scored)
// are left out of that comparison.
//
// The tau-* arms force the round's τ. At +Inf no participant is a
// candidate, so every occurring phrase is short and the engine runs the pure
// plan: tau-inf is the cost reference, and materialization counters are
// compared only between tau-inf variants. tau-zero makes every positive
// score a candidate and leaves nothing to the plan; tau-random draws a
// fresh τ each round; tau-at-slot sets τ to exactly the k-th or (k+1)-th
// score of an occurring phrase, read from the tau-inf twin that round.
// Every forced arm also has its pass checked against its definition (see
// checkPass): which participants became candidates, and which phrases fell
// back.
//
// The rotated-rates variant is Lemma 1 pinned at engine level: its workload's
// search rates are rotated by half the phrase universe before New, so the
// §II-D heuristic builds a structurally different plan over the same
// queries. It runs at τ = +Inf and sees the same rounds as every other
// engine, so it must pick the same winners at a different plan cost.
//
// The inert-cache variant sets the deprecated Config.IncrementalCache, which
// benchmark workloads still set: its Stats must equal the tau-inf engine's
// field for field, so those workloads measure the one path.
func TestEngineStrategyEquivalence(t *testing.T) {
	scenarios := []equivScenario{
		{"gsp-naive", pricing.GSP, Naive, 0},
		{"vcg-naive", pricing.VCG, Naive, 0},
		{"gsp-throttled", pricing.GSP, Throttled, 0},
		{"vcg-throttled-reserve", pricing.VCG, Throttled, 0.4},
	}
	variants := []equivVariant{
		resultRef: {name: "independent", independent: true},
		costRef:   {name: "tau-inf", tau: tauInf},
		{name: "compiled"},
		{name: "compiled-inert-cache", tau: tauInf, inertCache: true},
		{name: "compiled-rotated-rates", tau: tauInf, rotated: true},
		{name: "tau-zero", tau: tauZero},
		{name: "tau-random", tau: tauRandom},
		{name: "tau-at-slot", tau: tauAtSlot},
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
// every report is compared with, and the tau-inf engine — the pure compiled
// plan — every tau-inf variant's aggregation cost is compared with.
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

// tauArm selects how a shared variant's round τ is chosen.
type tauArm int

const (
	tauDefault tauArm = iota // the engine's own per-phrase rule
	tauInf                   // +Inf: every phrase short, the pure plan
	tauZero                  // 0: every positive score is a candidate
	tauRandom                // a fresh random τ each round
	tauAtSlot                // exactly the k-th or (k+1)-th score of an occurring phrase
)

type equivVariant struct {
	name        string
	independent bool
	tau         tauArm
	// inertCache sets the deprecated IncrementalCache field, which must
	// change nothing.
	inertCache bool
	// rotated builds the plan from search rates rotated by half the phrase
	// universe; results must be unchanged (Lemma 1), cost must not be.
	rotated bool
}

// runEquivalence steps one engine per variant over the same randomized
// rounds and fails on the first report or account that differs from
// variants[resultRef]'s, or, among tau-inf variants, aggregation cost that
// differs from variants[costRef]'s (rotated variants are exempt from the
// cost check, and must differ from the reference's cost in at least one
// round). variants[costRef] must be a tau-inf arm: forced arms read its
// runs. Every third round moves every world's bids the same way.
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
		if v.rotated {
			worlds[i].RotateRates(len(worlds[i].Rates) / 2)
		}
		eng, err := New(worlds[i], cfg)
		if err != nil {
			t.Fatal(err)
		}
		if v.tau != tauDefault {
			eng.tauForced = new(float64)
			if v.tau == tauInf {
				*eng.tauForced = math.Inf(1)
			}
		}
		engines[i] = eng
	}

	rng := rand.New(rand.NewSource(wcfg.Seed * 7))
	tauRng := rand.New(rand.NewSource(wcfg.Seed * 11))
	occ := make([]bool, wcfg.NumPhrases)
	// costDiffers[i] records whether variant i's aggregation cost ever
	// differed from the tau-inf engine's.
	costDiffers := make([]bool, len(variants))
	for round := 0; round < rounds; round++ {
		for q := range occ {
			occ[q] = rng.Float64() < 0.6
		}
		// The reference's report views its own engine's scratch, so the
		// other engines' Steps leave it intact.
		ref := engines[resultRef].Step(occ)
		refFull := 0
		for i := 1; i < len(engines); i++ {
			v := variants[i]
			// The tau-inf twin has already stepped this round.
			switch v.tau {
			case tauRandom:
				*engines[i].tauForced = randomTau(tauRng, engines[costRef], occ)
			case tauAtSlot:
				*engines[i].tauForced = slotTau(tauRng, engines[costRef], occ, round)
			}
			rep := engines[i].Step(occ)
			compareReports(t, v.name, round, ref, rep)
			if v.tau != tauDefault && v.tau != tauInf {
				checkPass(t, v.name, round, engines[i], occ)
			}
			if i == costRef {
				refFull = rep.Materialized
			}
			// Rotated variants run a structurally different (but
			// A-equivalent) plan, so their aggregation cost
			// legitimately diverges; results above must still match
			// exactly.
			if v.tau == tauInf && rep.Materialized != refFull {
				if !v.rotated {
					t.Fatalf("%s round %d: materialized %d, want %d",
						v.name, round, rep.Materialized, refFull)
				}
				costDiffers[i] = true
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
	}

	for _, e := range engines {
		e.Drain()
	}
	refStats := engines[resultRef].Stats()
	costStats := engines[costRef].Stats()
	for i := 1; i < len(engines); i++ {
		v, es := variants[i], engines[i].Stats()
		if v.inertCache && es != costStats {
			t.Errorf("%s: final stats %+v, want the tau-inf engine's %+v", v.name, es, costStats)
		}
		if v.rotated && !costDiffers[i] {
			t.Errorf("%s: materialized the same as the tau-inf engine in every round; the rotated rates built the same plan and the variant tests nothing", v.name)
		}
		if v.tau == tauInf && !v.rotated && es.NodesMaterialized != costStats.NodesMaterialized {
			t.Errorf("%s: lifetime materialized %d, want %d",
				v.name, es.NodesMaterialized, costStats.NodesMaterialized)
		}
		// Each arm must exercise the path it names.
		switch v.tau {
		case tauInf:
			if es.Candidates != 0 || es.ShortAuctions != es.AuctionsResolved {
				t.Errorf("%s: %d candidates, %d of %d auctions short; want none and all", v.name, es.Candidates, es.ShortAuctions, es.AuctionsResolved)
			}
		case tauZero:
			if es.ShortAuctions != 0 {
				t.Errorf("%s: %d auctions short, want none", v.name, es.ShortAuctions)
			}
		case tauDefault, tauRandom, tauAtSlot:
			if es.ShortAuctions == 0 || es.ShortAuctions == es.AuctionsResolved {
				t.Errorf("%s: %d of %d auctions short; the arm never mixed the pass with the fallback", v.name, es.ShortAuctions, es.AuctionsResolved)
			}
		}
		// Independent counts a different aggregation cost, runs no
		// threshold pass and skips no participant's scoring.
		es.NodesMaterialized, es.Candidates, es.ShortAuctions, es.Scored = refStats.NodesMaterialized, 0, 0, refStats.Scored
		if es != refStats {
			t.Errorf("%s: final stats %+v, want %+v", v.name, es, refStats)
		}
		for a := range worlds[0].Advertisers {
			if got, want := engines[i].Spent(a), engines[resultRef].Spent(a); got != want {
				t.Errorf("%s: advertiser %d spent %v, want %v", v.name, a, got, want)
				break
			}
		}
	}
}

// randomTau draws a τ uniformly from [0, 1.2 × the round's best score], the
// best score read from the tau-inf engine twin's runs: it covers rounds with
// no candidate, a few, and nearly every participant.
func randomTau(rng *rand.Rand, twin *Engine, occ []bool) float64 {
	best := 0.0
	for q, o := range occ {
		if run := twin.run(q); o && len(run) > 0 {
			best = max(best, run[0].Score)
		}
	}
	return rng.Float64() * 1.2 * best
}

// slotTau returns exactly the k-th (even rounds) or (k+1)-th (odd rounds)
// score of a random occurring phrase, read from the tau-inf twin's run;
// phrases with fewer entries give their last one. It is 0 in a round where
// no occurring phrase has a scored entry.
func slotTau(rng *rand.Rand, twin *Engine, occ []bool, round int) float64 {
	k := len(twin.w.SlotFactors)
	var picks []int
	for q, o := range occ {
		if o && len(twin.run(q)) > 0 {
			picks = append(picks, q)
		}
	}
	if len(picks) == 0 {
		return 0
	}
	run := twin.run(picks[rng.Intn(len(picks))])
	j := min(k-1+round%2, len(run)-1)
	return run[j].Score
}

// checkPass pins the threshold pass of the round e just stepped against its
// definition: the candidates are exactly the participants scoring above 0
// and at least τ, and an occurring phrase is short exactly when fewer than
// k+1 of its members are candidates and τ is not ≤ 0. Scores come from
// referenceScores, which scores every participant, because the engine's
// slab holds this round's score only for the participants it did not skip.
func checkPass(t *testing.T, name string, round int, e *Engine, occ []bool) {
	t.Helper()
	tau, k := e.scr.tau, len(e.w.SlotFactors)
	_, score := referenceScores(e, occ, new(referencePaths))
	want := 0
	for _, s := range score {
		if s > 0 && s >= tau {
			want++
		}
	}
	if len(e.scr.cand) != want {
		t.Errorf("%s round %d: %d candidates at τ = %v, want %d", name, round, len(e.scr.cand), tau, want)
		return
	}
	for q, o := range occ {
		if !o {
			continue
		}
		members := 0
		e.w.Interests[q].ForEach(func(i int) bool {
			if s := score[i]; s > 0 && s >= tau {
				members++
			}
			return true
		})
		if short := members < k+1 && !(tau <= 0); e.scr.short[q] != short {
			t.Errorf("%s round %d phrase %d: short %v with %d candidate members at τ = %v, want %v", name, round, q, e.scr.short[q], members, tau, short)
			return
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
