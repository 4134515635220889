package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"sharedwd/internal/plan"
	"sharedwd/internal/pricing"
	"sharedwd/internal/sharedagg"
	"sharedwd/internal/workload"
)

// TestEngineStrategyEquivalence is the engine-level equivalence property:
// over 4 scenarios × 60 randomized rounds (random occurrence vectors, bid
// perturbation, budgets that exhaust mid-day, GSP and VCG, naive and
// throttled policies), every way of running the shared engine — the
// threshold pass at its own τ and at forced ones — must produce
// RoundReports, Stats, and final per-advertiser accounting identical to the
// Independent engine's, which scores every participant and runs no
// threshold pass. Cost counters (NodesMaterialized, Candidates,
// ShortAuctions, Scored) are left out of that comparison.
//
// The tau-* arms force the round's τ. At +Inf no participant is a
// candidate, so every occurring phrase is short: the engine scores every
// participant on demand and scans every phrase, and is the cost reference,
// whose lifetime materialization must equal the Independent engine's.
// tau-zero makes every positive score a candidate and leaves no phrase
// short; tau-random draws a fresh τ each round; tau-at-slot sets τ to
// exactly the k-th or (k+1)-th score of an occurring phrase, read from the
// tau-inf twin that round. Every forced arm also has its pass checked
// against its definition (see checkPass): which participants became
// candidates, and which phrases were short.
//
// Independent mode and short phrases share scanPhrase, so the Lemma-1
// oracle (see lemmaOracle) pins it against code that shares nothing with
// it: after every round, two §II-D plans — one built from the workload's
// search rates, one from those rates rotated by half the phrase universe —
// run over the tau-inf engine's score slab, which holds every participant's
// score this round. Each plan's run for every occurring phrase must equal
// the engine's, and the two plans' costs must differ in at least one round,
// or the rotation built the same plan and tests nothing. Rounds 20–29 are
// dark: fifteen of every sixteen advertisers leave for them, so some phrases
// have fewer than k+1 positive scores and every scan must skip its inactive
// members' zeros; the oracle must see such a phrase.
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
		{name: "shared"},
		{name: "inert-cache", tau: tauInf, inertCache: true},
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
// every report is compared with, and the tau-inf engine — every phrase
// short, so every phrase scanned — every tau-inf variant's aggregation cost
// is compared with.
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
	tauInf                   // +Inf: every phrase short and scanned
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
}

// lemmaOracle is Lemma 1 as a test oracle: two compiled §II-D plans over
// the workload's queries, one built from its search rates and one from
// those rates rotated by half the phrase universe, so the heuristic builds
// structurally different plans that must still pick the same top-(k+1).
type lemmaOracle struct {
	runners [2]*plan.Runner
	// differs records whether the two plans' costs ever differed.
	differs bool
	// zeros records whether an occurring phrase's run ever held fewer
	// entries than both k+1 and the phrase's members.
	zeros bool
}

func newLemmaOracle(t *testing.T, wcfg workload.Config, k1 int) *lemmaOracle {
	t.Helper()
	o := new(lemmaOracle)
	for i := range o.runners {
		w := workload.Generate(wcfg)
		if i == 1 {
			w.RotateRates(len(w.Rates) / 2)
		}
		queries := make([]plan.Query, len(w.Interests))
		for q := range queries {
			queries[q] = plan.Query{Vars: w.Interests[q], Rate: w.Rates[q]}
		}
		inst, err := plan.NewInstance(len(w.Advertisers), queries)
		if err != nil {
			t.Fatal(err)
		}
		_, prog, err := sharedagg.BuildCompiled(inst)
		if err != nil {
			t.Fatal(err)
		}
		o.runners[i] = plan.NewRunner(prog, k1)
	}
	return o
}

// check runs both plans over e's score slab for the round e just stepped
// and requires each plan's run for every occurring phrase to equal e's. e
// must run at τ = +Inf, so that every participant was scored this round.
func (o *lemmaOracle) check(t *testing.T, round int, e *Engine, occ []bool) {
	t.Helper()
	var cost [2]int
	for i, r := range o.runners {
		cost[i] = r.Run(e.scr.score, occ)
		for q, on := range occ {
			if !on {
				continue
			}
			got, want := e.run(q), r.QueryRun(q)
			if !slices.Equal(got, want) {
				t.Fatalf("round %d phrase %d: engine run %v, plan %d's run %v", round, q, got, i, want)
			}
			o.zeros = o.zeros || len(got) < min(len(e.w.SlotFactors)+1, e.w.Interests[q].Count())
		}
	}
	o.differs = o.differs || cost[0] != cost[1]
}

// runEquivalence steps one engine per variant over the same randomized
// rounds and fails on the first report or account that differs from
// variants[resultRef]'s, or, among tau-inf variants, aggregation cost that
// differs from variants[costRef]'s. variants[costRef] must be a tau-inf arm:
// forced arms and the Lemma-1 oracle read its runs. Every third round moves
// every world's bids the same way.
func runEquivalence(t *testing.T, sc equivScenario, wcfg workload.Config, variants []equivVariant, rounds int) {
	base := DefaultConfig()
	base.Pricing = sc.rule
	base.Policy = sc.policy
	base.Reserve = sc.reserve
	base.Sharing = SharedAggregation
	var dark []workload.LifecycleEvent
	for i := 0; i < wcfg.NumAdvertisers; i++ {
		if i%16 != 0 {
			dark = append(dark, workload.LifecycleEvent{Round: 20, Kind: workload.LifecycleLeave, Advertiser: i},
				workload.LifecycleEvent{Round: 30, Kind: workload.LifecycleJoin, Advertiser: i})
		}
	}
	lc, err := workload.NewLifecycle(wcfg.NumAdvertisers, dark)
	if err != nil {
		t.Fatal(err)
	}
	base.Lifecycle = lc

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
	oracle := newLemmaOracle(t, wcfg, len(worlds[costRef].SlotFactors)+1)
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
				oracle.check(t, round, engines[i], occ)
			}
			if v.tau == tauInf && rep.Materialized != refFull {
				t.Fatalf("%s round %d: materialized %d, want %d",
					v.name, round, rep.Materialized, refFull)
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
	if !oracle.differs {
		t.Errorf("Lemma-1 oracle: the plans from rotated and unrotated rates cost the same in every round; the rotation built the same plan and the oracle tests nothing")
	}
	if !oracle.zeros {
		t.Errorf("Lemma-1 oracle: every phrase had k+1 positive scores in every round; no scan had a zero score to skip")
	}
	// Both engines scan every occurring phrase and count members − 1 per
	// auction.
	if costStats.NodesMaterialized != refStats.NodesMaterialized {
		t.Errorf("%s: lifetime materialized %d, want the Independent engine's %d",
			variants[costRef].name, costStats.NodesMaterialized, refStats.NodesMaterialized)
	}
	for i := 1; i < len(engines); i++ {
		v, es := variants[i], engines[i].Stats()
		if v.inertCache && es != costStats {
			t.Errorf("%s: final stats %+v, want the tau-inf engine's %+v", v.name, es, costStats)
		}
		if v.tau == tauInf && es.NodesMaterialized != costStats.NodesMaterialized {
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
