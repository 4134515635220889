package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"sharedwd/internal/auction"
	"sharedwd/internal/bitset"
	"sharedwd/internal/plan"
	"sharedwd/internal/pricing"
	"sharedwd/internal/sharedagg"
	"sharedwd/internal/workload"
)

func smallWorkload(seed int64) *workload.Workload {
	cfg := workload.DefaultConfig()
	cfg.NumAdvertisers = 60
	cfg.NumPhrases = 8
	cfg.NumTopics = 3
	cfg.Slots = 3
	cfg.Seed = seed
	return workload.Generate(cfg)
}

// TestNewValidation pins New's input checks, each under both sharing modes.
func TestNewValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		// edit makes a valid workload and configuration invalid.
		edit func(w *workload.Workload, cfg *Config)
	}{
		{"zero hazard", func(_ *workload.Workload, cfg *Config) { cfg.ClickHazard = 0 }},
		{"zero throttle unit", func(_ *workload.Workload, cfg *Config) { cfg.ThrottleUnit = 0 }},
		{"interest capacity", func(w *workload.Workload, _ *Config) { w.Interests[2] = bitset.New(len(w.Advertisers) + 1) }},
		{"missing rate", func(w *workload.Workload, _ *Config) { w.Rates = w.Rates[:len(w.Rates)-1] }},
		{"negative rate", func(w *workload.Workload, _ *Config) { w.Rates[1] = -0.1 }},
		{"rate above 1", func(w *workload.Workload, _ *Config) { w.Rates[1] = 1.5 }},
		{"NaN rate", func(w *workload.Workload, _ *Config) { w.Rates[1] = math.NaN() }},
		{"quality rows short of phrases", func(w *workload.Workload, _ *Config) { w.Quality = [][]float64{} }},
		{"empty quality rows", func(w *workload.Workload, _ *Config) { w.Quality = make([][]float64, len(w.Interests)) }},
	} {
		for _, sharing := range []SharingMode{SharedAggregation, Independent} {
			w, cfg := smallWorkload(1), DefaultConfig()
			cfg.Sharing = sharing
			tc.edit(w, &cfg)
			if _, err := New(w, cfg); err == nil {
				t.Errorf("%s, %v: New accepted it", tc.name, sharing)
			}
		}
	}
	pq := workload.DefaultConfig()
	pq.PerPhraseQuality = true
	cfg := DefaultConfig()
	cfg.Sharing = Independent
	if _, err := New(workload.Generate(pq), cfg); err == nil {
		t.Fatal("per-phrase-quality workload should be rejected under Independent sharing")
	}
}

// TestEmptyAndEquivalentPhrases: an empty phrase and two A-equivalent
// phrases (the same interest set) need no special case in either sharing
// mode, and both modes resolve them identically.
func TestEmptyAndEquivalentPhrases(t *testing.T) {
	var engines [2]*Engine
	for i, sharing := range []SharingMode{SharedAggregation, Independent} {
		w := smallWorkload(4)
		w.Interests[1] = bitset.New(len(w.Advertisers))
		w.Interests[3] = w.Interests[2].Clone()
		cfg := DefaultConfig()
		cfg.Sharing = sharing
		eng, err := New(w, cfg)
		if err != nil {
			t.Fatalf("%v: %v", sharing, err)
		}
		engines[i] = eng
	}
	occ := make([]bool, len(engines[0].w.Interests))
	for q := range occ {
		occ[q] = true
	}
	for round := 0; round < 20; round++ {
		want := engines[1].Step(occ)
		got := engines[0].Step(occ)
		compareReports(t, "shared", round, want, got)
		if _, ok := want.Auctions[1]; ok {
			t.Fatalf("round %d: the empty phrase filled slots %v", round, want.Auctions[1])
		}
		if len(want.Auctions[2]) == 0 || !reflect.DeepEqual(want.Auctions[2], want.Auctions[3]) {
			t.Fatalf("round %d: A-equivalent phrases filled %v and %v", round, want.Auctions[2], want.Auctions[3])
		}
		if t.Failed() {
			t.FailNow()
		}
	}
}

// TestNewRejectsWorkers pins the deprecated Workers field: an engine runs on
// one goroutine, so 0 and 1 are accepted and any other value is an error
// rather than silently ignored.
func TestNewRejectsWorkers(t *testing.T) {
	for _, tc := range []struct {
		workers int
		ok      bool
	}{
		{0, true},
		{1, true},
		{2, false},
		{-1, false},
	} {
		cfg := DefaultConfig()
		cfg.Workers = tc.workers
		_, err := New(smallWorkload(1), cfg)
		if (err == nil) != tc.ok {
			t.Errorf("Workers = %d: err = %v, want accepted %v", tc.workers, err, tc.ok)
		}
	}
}

func TestStepResolvesOccurringAuctions(t *testing.T) {
	w := smallWorkload(2)
	eng, err := New(w, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	occ := make([]bool, len(w.Interests))
	occ[0], occ[3] = true, true
	rep := eng.Step(occ)
	if len(rep.Auctions) != 2 {
		t.Fatalf("resolved %d auctions, want 2", len(rep.Auctions))
	}
	for q, slots := range rep.Auctions {
		if q != 0 && q != 3 {
			t.Fatalf("unexpected auction for phrase %d", q)
		}
		if len(slots) == 0 || len(slots) > len(w.SlotFactors) {
			t.Fatalf("phrase %d filled %d slots", q, len(slots))
		}
		seen := map[int]bool{}
		for _, s := range slots {
			if seen[s.Advertiser] {
				t.Fatal("advertiser won two slots in one auction")
			}
			seen[s.Advertiser] = true
			if s.PricePaid < 0 {
				t.Fatal("negative price")
			}
		}
	}
	if eng.Stats().AuctionsResolved != 2 || eng.Stats().Rounds != 1 {
		t.Fatalf("stats: %+v", eng.Stats())
	}
}

// TestSharedMatchesIndependentOutcomes: shared winner determination must
// award exactly the same slots at the same prices as per-auction scans under
// the naive policy with fresh budgets (identical inputs).
func TestSharedMatchesIndependentOutcomes(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		w1 := smallWorkload(seed)
		w2 := smallWorkload(seed)
		cfgS := DefaultConfig()
		cfgS.Policy = Naive
		cfgI := cfgS
		cfgI.Sharing = Independent
		engS, err := New(w1, cfgS)
		if err != nil {
			t.Fatal(err)
		}
		engI, err := New(w2, cfgI)
		if err != nil {
			t.Fatal(err)
		}
		occ := make([]bool, len(w1.Interests))
		for q := range occ {
			occ[q] = q%2 == 0
		}
		repS := engS.Step(occ)
		repI := engI.Step(occ)
		if len(repS.Auctions) != len(repI.Auctions) {
			t.Fatalf("auction counts differ: %d vs %d", len(repS.Auctions), len(repI.Auctions))
		}
		for q, slotsS := range repS.Auctions {
			slotsI := repI.Auctions[q]
			if len(slotsS) != len(slotsI) {
				t.Fatalf("phrase %d slot counts differ", q)
			}
			for j := range slotsS {
				if slotsS[j] != slotsI[j] {
					t.Fatalf("phrase %d slot %d: shared %+v vs independent %+v",
						q, j, slotsS[j], slotsI[j])
				}
			}
		}
		// The plan must do less aggregation work than the scans: its memo
		// evaluation on the round's occurrence vector materializes fewer
		// nodes than Σ(|X_q| − 1). (The engine's compiled program fuses
		// small shared nodes into each consumer, so its own count can
		// exceed the plan's.)
		queries := make([]plan.Query, len(w1.Interests))
		for q := range queries {
			queries[q] = plan.Query{Vars: w1.Interests[q], Rate: w1.Rates[q]}
		}
		_, planOps := plan.Execute(sharedagg.Build(plan.MustInstance(len(w1.Advertisers), queries)),
			func(int) struct{} { return struct{}{} },
			func(struct{}, struct{}) struct{} { return struct{}{} }, occ)
		if planOps >= repI.Materialized {
			t.Fatalf("shared plan materialized %d ≥ independent %d", planOps, repI.Materialized)
		}
	}
}

// TestBudgetNeverExceeded: the cardinal accounting invariant, under both
// policies, across many rounds with delayed clicks.
func TestBudgetNeverExceeded(t *testing.T) {
	for _, policy := range []BudgetPolicy{Naive, Throttled} {
		w := smallWorkload(11)
		// Tighten budgets to force the boundary.
		for i := range w.Advertisers {
			w.Advertisers[i].Budget = 5 + float64(i%7)
		}
		cfg := DefaultConfig()
		cfg.Policy = policy
		eng, err := New(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 60; r++ {
			eng.Step(nil)
			w.PerturbBids(0.05)
		}
		eng.Drain()
		for i := range w.Advertisers {
			if eng.Spent(i) > w.Advertisers[i].Budget+1e-6 {
				t.Fatalf("%v policy: advertiser %d spent %v of budget %v",
					policy, i, eng.Spent(i), w.Advertisers[i].Budget)
			}
		}
	}
}

// TestThrottledForgivesLessThanNaive: with tight budgets and slow clicks,
// the throttled policy loses (forgives) materially less revenue.
func TestThrottledForgivesLessThanNaive(t *testing.T) {
	run := func(policy BudgetPolicy) Stats {
		w := smallWorkload(13)
		for i := range w.Advertisers {
			w.Advertisers[i].Budget = 3
		}
		cfg := DefaultConfig()
		cfg.Policy = policy
		cfg.ClickHazard = 0.15
		cfg.ClickHorizon = 40
		eng, err := New(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		occ := make([]bool, len(w.Interests))
		for q := range occ {
			occ[q] = true
		}
		for r := 0; r < 40; r++ {
			eng.Step(occ)
		}
		eng.Drain()
		return eng.Stats()
	}
	naive := run(Naive)
	throttled := run(Throttled)
	if naive.ForgivenValue == 0 {
		t.Fatal("scenario failed to induce forgiven clicks under naive policy")
	}
	if throttled.ForgivenValue > 0.5*naive.ForgivenValue {
		t.Fatalf("throttled forgave %v vs naive %v; want < half",
			throttled.ForgivenValue, naive.ForgivenValue)
	}
}

func TestGamingScenario(t *testing.T) {
	naive, err := RunGamingExperiment(5, 40, 20, Naive)
	if err != nil {
		t.Fatal(err)
	}
	throttled, err := RunGamingExperiment(5, 40, 20, Throttled)
	if err != nil {
		t.Fatal(err)
	}
	if naive.OverDelivery() < 2 {
		t.Fatalf("naive over-delivery = %.2f; the gaming attack should work", naive.OverDelivery())
	}
	if throttled.OverDelivery() > 0.6*naive.OverDelivery() {
		t.Fatalf("throttled over-delivery = %.2f vs naive %.2f; throttling should blunt the attack",
			throttled.OverDelivery(), naive.OverDelivery())
	}
	if throttled.GamerPaid > throttled.GamerBudget+1e-9 || naive.GamerPaid > naive.GamerBudget+1e-9 {
		t.Fatal("no policy may charge above budget")
	}
	if naive.GamerWins <= throttled.GamerWins {
		t.Fatalf("naive wins %d should exceed throttled wins %d", naive.GamerWins, throttled.GamerWins)
	}
}

func TestAdvertiserReport(t *testing.T) {
	w := smallWorkload(31)
	eng, err := New(w, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	occ := make([]bool, len(w.Interests))
	for q := range occ {
		occ[q] = true
	}
	rep := eng.Step(occ)
	var winner int = -1
	for _, slots := range rep.Auctions {
		if len(slots) > 0 {
			winner = slots[0].Advertiser
			break
		}
	}
	if winner == -1 {
		t.Fatal("no winner to report on")
	}
	r := eng.Report(winner)
	if r.ID != winner || r.Budget != w.Advertisers[winner].Budget {
		t.Fatalf("report identity wrong: %+v", r)
	}
	if r.Outstanding == 0 || r.OutstandingExposure <= 0 {
		t.Fatalf("winner should have outstanding ads: %+v", r)
	}
	if r.Remaining != r.Budget-r.Spent {
		t.Fatalf("remaining inconsistent: %+v", r)
	}
}

func TestReservePriceEnforced(t *testing.T) {
	w := smallWorkload(23)
	cfg := DefaultConfig()
	cfg.Policy = Naive
	cfg.Reserve = 2.0
	eng, err := New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	occ := make([]bool, len(w.Interests))
	for q := range occ {
		occ[q] = true
	}
	filled := 0
	for r := 0; r < 5; r++ {
		rep := eng.Step(occ)
		for _, slots := range rep.Auctions {
			for _, s := range slots {
				filled++
				if s.PricePaid < cfg.Reserve-1e-9 {
					t.Fatalf("price %v below reserve %v", s.PricePaid, cfg.Reserve)
				}
				if w.Advertisers[s.Advertiser].Bid < cfg.Reserve {
					t.Fatalf("sub-reserve bidder %d won a slot", s.Advertiser)
				}
			}
		}
	}
	if filled == 0 {
		t.Fatal("reserve killed every auction; scenario broken")
	}
}

func TestDrainResolvesEverything(t *testing.T) {
	w := smallWorkload(17)
	eng, err := New(w, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 5; r++ {
		eng.Step(nil)
	}
	eng.Drain()
	if eng.clicks.PendingCount() != 0 {
		t.Fatalf("pending = %d after drain", eng.clicks.PendingCount())
	}
}

// TestQuickRevenueConservation: revenue equals Σ spent; forgiven value is
// never charged; displayed counts bound click counts.
func TestQuickAccountingInvariants(t *testing.T) {
	f := func(seed int64) bool {
		w := smallWorkload(seed%100 + 1)
		rng := rand.New(rand.NewSource(seed))
		for i := range w.Advertisers {
			w.Advertisers[i].Budget = 2 + rng.Float64()*20
		}
		cfg := DefaultConfig()
		if rng.Intn(2) == 0 {
			cfg.Policy = Naive
		}
		if rng.Intn(2) == 0 {
			cfg.Pricing = pricing.VCG
		}
		eng, err := New(w, cfg)
		if err != nil {
			return false
		}
		for r := 0; r < 15; r++ {
			eng.Step(nil)
		}
		eng.Drain()
		st := eng.Stats()
		totalSpent := 0.0
		for i := range w.Advertisers {
			totalSpent += eng.Spent(i)
		}
		if math.Abs(totalSpent-st.Revenue) > 1e-6 {
			return false
		}
		return st.ClicksCharged+st.ClicksForgiven <= st.AdsDisplayed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineWithCustomWorkload(t *testing.T) {
	advertisers := []auction.Advertiser{
		{ID: 0, Bid: 5, Quality: 1, Budget: 100},
		{ID: 1, Bid: 4, Quality: 1, Budget: 100},
		{ID: 2, Bid: 3, Quality: 1, Budget: 100},
	}
	all := bitset.FromIndices(3, 0, 1, 2)
	w, err := workload.NewCustom(advertisers, []bitset.Set{all}, []float64{1}, []float64{0.5, 0.25}, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(w, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep := eng.Step([]bool{true})
	slots := rep.Auctions[0]
	if len(slots) != 2 || slots[0].Advertiser != 0 || slots[1].Advertiser != 1 {
		t.Fatalf("slots = %+v", slots)
	}
	// GSP prices: slot0 pays next effective bid 4; slot1 pays 3.
	if math.Abs(slots[0].PricePaid-4) > 1e-9 || math.Abs(slots[1].PricePaid-3) > 1e-9 {
		t.Fatalf("prices = %v, %v", slots[0].PricePaid, slots[1].PricePaid)
	}
}

// TestStatsAddSumsEveryField keeps the shard roll-up complete: Stats.Add must
// sum every field on the wire schema (json tag other than "-"), so a counter
// added later cannot silently drop out of the fleet view.
func TestStatsAddSumsEveryField(t *testing.T) {
	typ := reflect.TypeOf(Stats{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Tag.Get("json") == "-" {
			continue
		}
		var a, b Stats
		set := func(s *Stats, v int) {
			fv := reflect.ValueOf(s).Elem().Field(i)
			switch fv.Kind() {
			case reflect.Int:
				fv.SetInt(int64(v))
			case reflect.Float64:
				fv.SetFloat(float64(v))
			default:
				t.Fatalf("Stats.%s has kind %v; teach this test to sum it", f.Name, fv.Kind())
			}
		}
		set(&a, 2)
		set(&b, 3)
		var want Stats
		set(&want, 5)
		if got := a.Add(b); got != want {
			t.Errorf("Stats.Add does not sum %s: got %+v, want %+v", f.Name, got, want)
		}
	}
}
