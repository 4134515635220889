// Integration tests exercising the public facade end to end: the paths a
// downstream user actually takes, crossing module boundaries (workload →
// plan → engine → pricing → clicks → budgets) rather than testing one
// package at a time.
package sharedwd

import (
	"math"
	"math/rand"
	"testing"

	"sharedwd/internal/workload"
)

func TestFacadeSingleAuctionFlow(t *testing.T) {
	advertisers := []Advertiser{
		{ID: 0, Bid: 10, Quality: 1.2, Budget: 100},
		{ID: 1, Bid: 9, Quality: 1.1, Budget: 100},
		{ID: 2, Bid: 1, Quality: 1.3, Budget: 100},
	}
	d := []float64{0.3, 0.2}
	a := SolveSeparable(advertisers, d)
	if a.Slots[0] != 0 || a.Slots[1] != 1 {
		t.Fatalf("assignment = %v", a.Slots)
	}
	ranked := []RankedBidder{
		{ID: 0, Bid: 10, Quality: 1.2},
		{ID: 1, Bid: 9, Quality: 1.1},
		{ID: 2, Bid: 1, Quality: 1.3},
	}
	for _, rule := range []PricingRule{FirstPrice, GSP, VCG} {
		prices := Prices(rule, ranked, d)
		for j, p := range prices {
			if p > ranked[j].Bid+1e-9 {
				t.Fatalf("%v charges %v above bid %v", rule, p, ranked[j].Bid)
			}
		}
	}
}

func TestFacadeSharedPlanFlow(t *testing.T) {
	boots := AdvertiserSetOf(6, 0, 1, 2, 3)
	heels := AdvertiserSetOf(6, 0, 1, 4, 5)
	inst, err := NewAggInstance(6, []AggQuery{{Vars: boots, Rate: 1}, {Vars: heels, Rate: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, build := range []func(*AggInstance) (*AggPlan, error){BuildSharedPlan, BuildFragmentOnlyPlan, BuildDisjointPlan, BuildNaivePlan} {
		p, err := build(inst)
		if err != nil {
			t.Fatal(err)
		}
		bids := []float64{5, 9, 2, 7, 4, 8}
		leaf := func(v int) *TopKList {
			l := Must(NewTopKList(2))
			l.Push(TopKEntry{ID: v, Score: bids[v]})
			return l
		}
		results, mat := ExecutePlan(p, leaf, nil)
		if mat <= 0 {
			t.Fatal("no aggregation performed")
		}
		if ids := results[0].IDs(); ids[0] != 1 || ids[1] != 3 {
			t.Fatalf("boots top-2 = %v", ids)
		}
		if ids := results[1].IDs(); ids[0] != 1 || ids[1] != 5 {
			t.Fatalf("heels top-2 = %v", ids)
		}
	}
}

// TestFacadeFullDayBothEngines runs a day on the engine in both quality
// regimes: budgets hold, revenue is the sum of spend, and the per-phrase
// regime counts the threshold algorithm's sorted accesses.
func TestFacadeFullDayBothEngines(t *testing.T) {
	for _, perPhrase := range []bool{false, true} {
		wcfg := DefaultWorkloadConfig()
		wcfg.NumAdvertisers = 150
		wcfg.NumPhrases = 12
		wcfg.Seed = 99
		wcfg.PerPhraseQuality = perPhrase
		w := Must(GenerateWorkload(wcfg))
		eng, err := NewEngine(w, DefaultEngineConfig())
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 50; r++ {
			eng.Step(nil)
			w.PerturbBids(0.02)
		}
		eng.Drain()
		st := eng.Stats()
		if st.Rounds < 50 || st.AuctionsResolved == 0 || st.Revenue <= 0 || perPhrase != (st.SortedAccesses > 0) {
			t.Fatalf("per-phrase %v: engine stats: %+v", perPhrase, st)
		}
		total := 0.0
		for i := range w.Advertisers {
			if eng.Spent(i) > w.Advertisers[i].Budget+1e-6 {
				t.Fatalf("per-phrase %v: advertiser %d over budget", perPhrase, i)
			}
			total += eng.Spent(i)
		}
		if math.Abs(total-st.Revenue) > 1e-6 {
			t.Fatalf("per-phrase %v: revenue %v != Σspent %v", perPhrase, st.Revenue, total)
		}
	}
}

func TestFacadeThrottlingFlow(t *testing.T) {
	ads := []OutstandingAd{{Price: 3, CTR: 0.5}, {Price: 1, CTR: 0.2}}
	exact := ExactThrottledBid(2, 5, 2, ads)
	tr, err := NewThrottler(0, 2, 5, 2, ads)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Bounds().Contains(exact) {
		t.Fatalf("bounds %v exclude exact %v", tr.Bounds(), exact)
	}
	other, _ := NewThrottler(1, 0.1, 5, 2, nil)
	if CompareThrottled(tr, other) != 1 {
		t.Fatal("throttler with higher bid should outrank")
	}
	winners := TopKThrottled(1, []*Throttler{tr, other})
	if len(winners) != 1 || winners[0].ID != 0 {
		t.Fatalf("winners = %v", winners)
	}
}

func TestFacadeMatcherToEngine(t *testing.T) {
	// Raw queries → matcher → occurrence vector → engine step.
	wcfg := DefaultWorkloadConfig()
	wcfg.NumAdvertisers = 60
	wcfg.NumPhrases = 6
	w := Must(GenerateWorkload(wcfg))
	m := NewMatcher(w.PhraseNames)
	eng, err := NewEngine(w, DefaultEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	occ := make([]bool, len(w.PhraseNames))
	matched := 0
	for _, query := range []string{w.PhraseNames[0], "  " + w.PhraseNames[3] + " ", "no such phrase"} {
		if id, ok := m.Match(query); ok {
			occ[id] = true
			matched++
		}
	}
	if matched != 2 {
		t.Fatalf("matched %d queries, want 2", matched)
	}
	rep := eng.Step(occ)
	if len(rep.Auctions) != 2 {
		t.Fatalf("resolved %d auctions, want 2", len(rep.Auctions))
	}
}

// TestRawQueryStreamToEngine drives the full front door: a raw query
// stream (messy casing, synonyms, junk) through the two-stage matcher into
// engine rounds, checking that auctions run exactly for matched phrases.
func TestRawQueryStreamToEngine(t *testing.T) {
	wcfg := DefaultWorkloadConfig()
	wcfg.NumAdvertisers = 80
	wcfg.NumPhrases = 8
	wcfg.Seed = 21
	w := Must(GenerateWorkload(wcfg))
	qs := workload.NewQueryStream(w, 0.2, 9)
	qs.AddSynonym("trail boots", w.PhraseNames[0])
	m := NewMatcher(w.PhraseNames)
	m.AddRewrite("trail boots", w.PhraseNames[0])
	eng, err := NewEngine(w, DefaultEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	auctions := 0
	for r := 0; r < 40; r++ {
		occ, _ := workload.Occurrences(m, len(w.PhraseNames), qs.Round())
		rep := eng.Step(occ)
		for q := range rep.Auctions {
			if !occ[q] {
				t.Fatalf("auction for non-occurring phrase %d", q)
			}
		}
		auctions += len(rep.Auctions)
	}
	if auctions == 0 {
		t.Fatal("no auctions resolved from the query stream")
	}
}

// TestAdversarialClickTiming injects the two extreme click schedules — all
// clicks instantly, and all clicks at the last possible round — and checks
// budget accounting never breaks under either policy.
func TestAdversarialClickTiming(t *testing.T) {
	for _, hazard := range []float64{1.0, 0.011} {
		for _, policy := range []BudgetPolicy{Naive, Throttled} {
			wcfg := DefaultWorkloadConfig()
			wcfg.NumAdvertisers = 60
			wcfg.NumPhrases = 6
			wcfg.Seed = 7
			w := Must(GenerateWorkload(wcfg))
			for i := range w.Advertisers {
				w.Advertisers[i].Budget = 2.5
			}
			cfg := DefaultEngineConfig()
			cfg.Policy = policy
			cfg.ClickHazard = hazard
			cfg.ClickHorizon = 90
			eng, err := NewEngine(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			occ := make([]bool, len(w.Interests))
			for q := range occ {
				occ[q] = true
			}
			for r := 0; r < 30; r++ {
				eng.Step(occ)
			}
			eng.Drain()
			for i := range w.Advertisers {
				if eng.Spent(i) > w.Advertisers[i].Budget+1e-6 {
					t.Fatalf("hazard=%v policy=%v: advertiser %d over budget", hazard, policy, i)
				}
			}
		}
	}
}

// TestTraceReplayComparesPolicies records one trace and replays it against
// both budget policies — the canonical apples-to-apples comparison. The
// recorded inputs are identical, so any outcome difference is attributable
// to the policy alone; and replaying the same trace twice must be
// bit-identical.
func TestTraceReplayComparesPolicies(t *testing.T) {
	mkWorkload := func() *Workload {
		wcfg := DefaultWorkloadConfig()
		wcfg.NumAdvertisers = 80
		wcfg.NumPhrases = 8
		wcfg.Seed = 15
		w := Must(GenerateWorkload(wcfg))
		for i := range w.Advertisers {
			w.Advertisers[i].Budget = 3
		}
		return w
	}
	trace := workload.Record(mkWorkload(), 40, 0.05)

	run := func(policy BudgetPolicy) EngineStats {
		w := mkWorkload()
		cfg := DefaultEngineConfig()
		cfg.Policy = policy
		cfg.ClickHazard = 0.15
		cfg.ClickHorizon = 40
		eng, err := NewEngine(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for r := range trace.Rounds {
			eng.Step(trace.Apply(w, r))
		}
		eng.Drain()
		return eng.Stats()
	}
	naive1 := run(Naive)
	naive2 := run(Naive)
	throttled := run(Throttled)
	if naive1 != naive2 {
		t.Fatalf("same trace, same policy diverged:\n%+v\n%+v", naive1, naive2)
	}
	if naive1.ForgivenValue == 0 {
		t.Fatal("trace failed to stress budgets under the naive policy")
	}
	if throttled.ForgivenValue >= naive1.ForgivenValue {
		t.Fatalf("throttled forgave %v, naive %v; trace comparison inverted",
			throttled.ForgivenValue, naive1.ForgivenValue)
	}
}

// TestGamingFacade smoke-tests the gaming entry points through the facade.
func TestGamingFacade(t *testing.T) {
	single, err := RunGamingScenario(3, 20, Naive)
	if err != nil {
		t.Fatal(err)
	}
	if single.GamerBudget <= 0 {
		t.Fatal("scenario did not run")
	}
	avg, err := RunGamingExperiment(3, 20, 5, Throttled)
	if err != nil {
		t.Fatal(err)
	}
	if avg.Policy != Throttled {
		t.Fatalf("policy = %v", avg.Policy)
	}
}

// TestDeterministicReplay: identical seeds produce identical day-level
// outcomes across completely separate engine instances.
func TestDeterministicReplay(t *testing.T) {
	run := func() (float64, int) {
		wcfg := DefaultWorkloadConfig()
		wcfg.NumAdvertisers = 100
		wcfg.NumPhrases = 10
		wcfg.Seed = 1234
		w := Must(GenerateWorkload(wcfg))
		eng, err := NewEngine(w, DefaultEngineConfig())
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 25; r++ {
			eng.Step(nil)
			w.PerturbBids(0.05)
		}
		eng.Drain()
		return eng.Stats().Revenue, eng.Stats().ClicksCharged
	}
	r1, c1 := run()
	r2, c2 := run()
	if r1 != r2 || c1 != c2 {
		t.Fatalf("replay diverged: (%v, %d) vs (%v, %d)", r1, c1, r2, c2)
	}
}

// TestAnalyticsFacade exercises the Section-VII service via the facade.
func TestAnalyticsFacade(t *testing.T) {
	svc := Must(NewAnalytics(8))
	id, err := svc.Register(1, AdvertiserSetOf(8, 0, 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Build(); err != nil {
		t.Fatal(err)
	}
	stats := make([]PhraseStats, 8)
	rng := rand.New(rand.NewSource(4))
	for q := range stats {
		stats[q] = PhraseStats{MaxBid: rng.Float64(), SumBids: 2, Bids: 2, Searches: 10}
	}
	res, _, err := svc.Evaluate(stats)
	if err != nil {
		t.Fatal(err)
	}
	if res[id].Searches != 40 || res[id].Bids != 8 {
		t.Fatalf("result = %+v", res[id])
	}
}

// TestCustomWorkloadFacade assembles a bespoke workload through the
// internal constructor used by experiments and runs it end to end.
func TestCustomWorkloadFacade(t *testing.T) {
	advertisers := []Advertiser{
		{ID: 0, Bid: 3, Quality: 1, Budget: 50},
		{ID: 1, Bid: 2, Quality: 1, Budget: 50},
	}
	all := AdvertiserSetOf(2, 0, 1)
	w, err := workload.NewCustom(advertisers, []AdvertiserSet{all}, []float64{1}, []float64{0.4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(w, DefaultEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep := eng.Step([]bool{true})
	slots := rep.Auctions[0]
	if len(slots) != 1 || slots[0].Advertiser != 0 {
		t.Fatalf("slots = %+v", slots)
	}
	// GSP with one slot: winner pays runner-up's effective bid = 2.
	if math.Abs(slots[0].PricePaid-2) > 1e-9 {
		t.Fatalf("price = %v", slots[0].PricePaid)
	}
}
