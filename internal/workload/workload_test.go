package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGenerateShape(t *testing.T) {
	cfg := DefaultConfig()
	w := Generate(cfg)
	if len(w.Advertisers) != cfg.NumAdvertisers {
		t.Fatalf("advertisers = %d", len(w.Advertisers))
	}
	if len(w.Interests) != cfg.NumPhrases || len(w.Rates) != cfg.NumPhrases {
		t.Fatal("phrase arrays wrong length")
	}
	if len(w.SlotFactors) != cfg.Slots {
		t.Fatal("slot factors wrong length")
	}
	for j := 1; j < len(w.SlotFactors); j++ {
		if w.SlotFactors[j] >= w.SlotFactors[j-1] {
			t.Fatal("slot factors must be strictly descending")
		}
	}
	for q, r := range w.Rates {
		if r <= 0 || r > 0.95 {
			t.Fatalf("rate[%d] = %v", q, r)
		}
		if q > 0 && w.Rates[q] > w.Rates[q-1] {
			t.Fatal("rates should decay with rank")
		}
	}
	for _, a := range w.Advertisers {
		if a.Bid < cfg.MinBid || a.Bid > cfg.MaxBid {
			t.Fatalf("bid %v out of range", a.Bid)
		}
		if a.Budget < cfg.MinBudget || a.Budget > cfg.MaxBudget {
			t.Fatalf("budget %v out of range", a.Budget)
		}
		if a.Quality <= 0 {
			t.Fatal("non-positive quality")
		}
	}
	if w.Quality != nil {
		t.Fatal("global-quality config should not build per-phrase qualities")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultConfig())
	b := Generate(DefaultConfig())
	for i := range a.Advertisers {
		if a.Advertisers[i] != b.Advertisers[i] {
			t.Fatal("same seed must generate identical advertisers")
		}
	}
	for q := range a.Interests {
		if !a.Interests[q].Equal(b.Interests[q]) {
			t.Fatal("same seed must generate identical interests")
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	for _, mutate := range []func(*Config){
		func(c *Config) { c.NumAdvertisers = 0 },
		func(c *Config) { c.NumTopics = 0 },
		func(c *Config) { c.MinBid = 10; c.MaxBid = 1 },
	} {
		cfg := DefaultConfig()
		mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			Generate(cfg)
		}()
	}
}

func TestPerPhraseQuality(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PerPhraseQuality = true
	w := Generate(cfg)
	if w.Quality == nil {
		t.Fatal("expected per-phrase qualities")
	}
	if w.QualityFor(0, 0) != w.Quality[0][0] {
		t.Fatal("QualityFor should use the per-phrase table")
	}
	// Factors must actually vary across phrases for some advertiser.
	varies := false
	for i := 0; i < cfg.NumAdvertisers && !varies; i++ {
		if w.Quality[0][i] != w.Quality[1][i] {
			varies = true
		}
	}
	if !varies {
		t.Fatal("per-phrase qualities do not vary")
	}
}

func TestInterestOverlapStructure(t *testing.T) {
	w := Generate(DefaultConfig())
	// General advertisers make phrases overlap: some pair of phrases from
	// different topics must share a substantial advertiser set.
	maxOverlap := 0
	for a := 0; a < len(w.Interests); a++ {
		for b := a + 1; b < len(w.Interests); b++ {
			if ov := w.Interests[a].IntersectCount(w.Interests[b]); ov > maxOverlap {
				maxOverlap = ov
			}
		}
	}
	if maxOverlap < 10 {
		t.Fatalf("max phrase overlap = %d; workload lacks the sharing structure", maxOverlap)
	}
}

func TestSampleRoundRespectsRates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 7
	w := Generate(cfg)
	const rounds = 20000
	counts := make([]int, cfg.NumPhrases)
	for r := 0; r < rounds; r++ {
		for q, occ := range w.SampleRound() {
			if occ {
				counts[q]++
			}
		}
	}
	for q, c := range counts {
		got := float64(c) / rounds
		if math.Abs(got-w.Rates[q]) > 0.02 {
			t.Fatalf("phrase %d: empirical rate %v vs %v", q, got, w.Rates[q])
		}
	}
}

func TestPerturbBidsStaysInRange(t *testing.T) {
	w := Generate(DefaultConfig())
	before := w.Bids()
	for i := 0; i < 50; i++ {
		w.PerturbBids(0.3)
	}
	after := w.Bids()
	changed := false
	for i := range after {
		if after[i] < w.Cfg.MinBid || after[i] > w.Cfg.MaxBid {
			t.Fatalf("bid %v escaped range", after[i])
		}
		if after[i] != before[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("PerturbBids changed nothing")
	}
}

func TestMatcher(t *testing.T) {
	m := NewMatcher([]string{"hiking boots", "high heels", "running shoes"})
	if id, ok := m.Match("  Hiking   BOOTS "); !ok || id != 0 {
		t.Fatalf("Match = %d %v", id, ok)
	}
	if _, ok := m.Match("sneakers"); ok {
		t.Fatal("unmatched query should miss")
	}
	m.AddRewrite("sneakers", "running shoes")
	if id, ok := m.Match("Sneakers"); !ok || id != 2 {
		t.Fatalf("rewrite Match = %d %v", id, ok)
	}
}

func TestNormalize(t *testing.T) {
	if got := Normalize("  FOO   bar\tbaz "); got != "foo bar baz" {
		t.Fatalf("Normalize = %q", got)
	}
}

func TestClickSimValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewClickSim(rand.New(rand.NewSource(1)), 0, 10)
}

func TestClickSimEventualClickRate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cs := NewClickSim(rng, 0.5, 60)
	const n = 20000
	ctr := 0.35
	for i := 0; i < n; i++ {
		cs.Display(i, 1, ctr, 0)
	}
	clicks := 0
	for round := 0; round <= 60; round++ {
		clicks += len(cs.Advance(round))
	}
	got := float64(clicks) / n
	// Truncation at the horizon loses a negligible (1-0.5)^60 tail.
	if math.Abs(got-ctr) > 0.02 {
		t.Fatalf("eventual click rate %v, want ≈ %v", got, ctr)
	}
	if cs.PendingCount() != 0 {
		t.Fatalf("pending = %d after horizon", cs.PendingCount())
	}
}

// TestClickSimOutstanding pins Outstanding on a fate fixed by SetOutcome:
// advertiser 7's one ad is never clicked, so at age 2 it is outstanding
// with its price and ctr0·(1−hazard)², and advertiser 8's clicked ad is not
// advertiser 7's.
func TestClickSimOutstanding(t *testing.T) {
	cs := NewClickSim(rand.New(rand.NewSource(5)), 0.3, 10)
	cs.SetOutcome(func(adv int, _, _ float64, _ int) (bool, int) { return adv == 8, 1 })
	cs.Display(7, 2.5, 0.4, 0)
	cs.Display(8, 1.0, 0.4, 0)
	cs.Advance(0)
	if got := cs.Advance(1); len(got) != 1 || got[0].Advertiser != 8 {
		t.Fatalf("round 1 clicks %+v, want advertiser 8's", got)
	}
	prices, ctrs := cs.Outstanding(7, 2)
	if len(prices) != 1 || len(ctrs) != 1 {
		t.Fatalf("advertiser 7 has %d/%d outstanding ads, want 1", len(prices), len(ctrs))
	}
	if prices[0] != 2.5 {
		t.Fatalf("price = %v, want 2.5", prices[0])
	}
	if want := 0.4 * math.Pow(0.7, 2); math.Abs(ctrs[0]-want) > 1e-12 {
		t.Fatalf("remaining ctr = %v, want %v", ctrs[0], want)
	}
	if p, _ := cs.Outstanding(8, 2); len(p) != 0 {
		t.Fatalf("advertiser 8's clicked ad is still outstanding: %v", p)
	}
}

func TestRemainingCTR(t *testing.T) {
	if got := RemainingCTR(0.4, 0, 0.3, 10); got != 0.4 {
		t.Fatalf("age 0: %v", got)
	}
	if got := RemainingCTR(0.4, 10, 0.3, 10); got != 0 {
		t.Fatalf("at horizon: %v", got)
	}
	if got := RemainingCTR(0.4, -3, 0.3, 10); got != 0.4 {
		t.Fatalf("negative age: %v", got)
	}
}

// TestQuickClickNeverBeforeDisplayOrAfterHorizon: structural invariants of
// the click stream.
func TestQuickClickInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cs := NewClickSim(rng, 0.2+0.6*rng.Float64(), 1+rng.Intn(20))
		displayed := map[int]int{}
		for r := 0; r < 30; r++ {
			if rng.Intn(2) == 0 {
				id := rng.Intn(10)
				cs.Display(id, 1, rng.Float64(), r)
				displayed[id*100+r] = r
			}
			for _, c := range cs.Advance(r) {
				if c.Round != r {
					return false
				}
				if c.Round < c.Displayed || c.Round-c.Displayed >= cs.Horizon {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestClickSimEngineOrderClickRate is the lost-click-bias regression: the
// engines run Advance before Display within a round, so a delay-0 click
// could never be delivered. The delay draw now has support {1,…,Horizon−1},
// normalized so the realized click frequency stays ctr — before the fix,
// roughly a Hazard fraction of clicks (the delay-0 mass) was silently
// dropped, biasing spend low.
func TestClickSimEngineOrderClickRate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const (
		hazard = 0.5 // delay-0 mass under the old draw: half the clicks
		ctr    = 0.4
		rounds = 4000
	)
	cs := NewClickSim(rng, hazard, 20)
	displays, clicks := 0, 0
	for r := 0; r < rounds+cs.Horizon; r++ {
		clicks += len(cs.Advance(r)) // engine order: Advance, then Display
		if r < rounds {
			cs.Display(r%7, 1, ctr, r)
			displays++
		}
	}
	got := float64(clicks) / float64(displays)
	if math.Abs(got-ctr) > 0.02 {
		t.Fatalf("realized click rate %v under engine order, want ≈ %v (lost-click bias)", got, ctr)
	}
}

// TestClickSimDelaySupport: drawn delays always land in {1,…,Horizon−1} —
// delay 0 (unobservable) and ≥ Horizon (never delivered) are excluded by
// construction, including at the degenerate Hazard = 1 and Horizon = 2
// corners.
func TestClickSimDelaySupport(t *testing.T) {
	for _, tc := range []struct {
		hazard  float64
		horizon int
	}{{0.5, 20}, {0.05, 3}, {1, 10}, {0.9, 2}} {
		rng := rand.New(rand.NewSource(7))
		cs := NewClickSim(rng, tc.hazard, tc.horizon)
		for i := 0; i < 2000; i++ {
			if d := cs.drawDelay(); d < 1 || d >= tc.horizon {
				t.Fatalf("hazard %v horizon %d: delay %d outside {1,…,%d}", tc.hazard, tc.horizon, d, tc.horizon-1)
			}
		}
	}
	// Horizon 1 has no observable window at all: no click is ever drawn.
	cs := NewClickSim(rand.New(rand.NewSource(7)), 0.5, 1)
	for i := 0; i < 100; i++ {
		if d := cs.drawDelay(); d != 0 {
			t.Fatalf("horizon 1: delay %d, want 0 (no click)", d)
		}
	}
}

// TestClickSimGappedAdvance is the gap-drop regression: a click whose round
// falls strictly inside an Advance gap must be delivered at the next
// Advance — with Click.Round reporting its true arrival round — not
// silently dropped.
func TestClickSimGappedAdvance(t *testing.T) {
	cs := NewClickSim(rand.New(rand.NewSource(1)), 0.5, 30)
	cs.SetOutcome(func(adv int, price, ctr float64, round int) (bool, int) {
		return true, 2 // every ad clicks exactly 2 rounds after display
	})
	cs.Display(4, 1.5, 0.9, 0) // clicks at round 2
	cs.Display(5, 2.5, 0.9, 1) // clicks at round 3
	if got := cs.Advance(0); len(got) != 0 {
		t.Fatalf("round 0: %d clicks before any is due", len(got))
	}
	got := cs.Advance(7) // jump the gap over rounds 1–6
	if len(got) != 2 {
		t.Fatalf("gapped advance delivered %d clicks, want 2", len(got))
	}
	for _, c := range got {
		want := Click{Advertiser: 4, Price: 1.5, Displayed: 0, Round: 2}
		if c.Advertiser == 5 {
			want = Click{Advertiser: 5, Price: 2.5, Displayed: 1, Round: 3}
		}
		if c != want {
			t.Fatalf("gapped click %+v, want %+v", c, want)
		}
	}
	if cs.PendingCount() != 0 {
		t.Fatalf("pending = %d after gap delivery", cs.PendingCount())
	}
}

func TestLifecycleValidation(t *testing.T) {
	for i, tc := range []struct {
		n  int
		ev []LifecycleEvent
	}{
		{0, nil},
		{2, []LifecycleEvent{{Round: 0, Kind: LifecycleJoin, Advertiser: 2}}},
		{2, []LifecycleEvent{{Round: -1, Kind: LifecycleJoin, Advertiser: 0}}},
		{2, []LifecycleEvent{{Round: 0, Kind: LifecycleKind(9), Advertiser: 0}}},
		{2, []LifecycleEvent{{Round: 0, Kind: LifecycleRefresh, Advertiser: 0, Budget: -1}}},
	} {
		if _, err := NewLifecycle(tc.n, tc.ev); err == nil {
			t.Errorf("case %d: invalid schedule accepted", i)
		}
	}
}

func TestLifecycleApplyAndInitialActivity(t *testing.T) {
	lc, err := NewLifecycle(3, []LifecycleEvent{
		{Round: 10, Kind: LifecycleLeave, Advertiser: 0},
		{Round: 5, Kind: LifecycleJoin, Advertiser: 1},
		{Round: 20, Kind: LifecycleRefresh, Advertiser: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Advertiser 1's first join/leave event is a join after round 0: starts
	// inactive. 0 (leave first) and 2 (refresh only) start active.
	for i, want := range []bool{true, false, true} {
		if got := lc.InitiallyActive(i); got != want {
			t.Fatalf("InitiallyActive(%d) = %v, want %v", i, got, want)
		}
	}
	var seen []LifecycleEvent
	cursor := lc.Apply(0, 4, func(ev LifecycleEvent) { seen = append(seen, ev) })
	if len(seen) != 0 {
		t.Fatalf("events before round 5: %v", seen)
	}
	cursor = lc.Apply(cursor, 12, func(ev LifecycleEvent) { seen = append(seen, ev) })
	if len(seen) != 2 || seen[0].Round != 5 || seen[1].Round != 10 {
		t.Fatalf("events through round 12: %v", seen)
	}
	cursor = lc.Apply(cursor, 100, func(ev LifecycleEvent) { seen = append(seen, ev) })
	if len(seen) != 3 || cursor != 3 {
		t.Fatalf("events through round 100: %v (cursor %d)", seen, cursor)
	}
	if k := LifecycleJoin.String() + LifecycleLeave.String() + LifecycleRefresh.String(); k != "joinleaverefresh" {
		t.Fatalf("kind strings: %q", k)
	}
}

func TestGenerateLifecycle(t *testing.T) {
	w := Generate(DefaultConfig())
	lc, err := GenerateLifecycle(w, LifecycleConfig{Rounds: 500, ChurnFraction: 0.3, RefreshEvery: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if lc.NumAdvertisers() != len(w.Advertisers) {
		t.Fatalf("universe %d, want %d", lc.NumAdvertisers(), len(w.Advertisers))
	}
	joins, leaves, refreshes := 0, 0, 0
	lastRound := -1
	for _, ev := range lc.Events() {
		if ev.Round < lastRound {
			t.Fatal("events not round-ordered")
		}
		lastRound = ev.Round
		switch ev.Kind {
		case LifecycleJoin:
			joins++
		case LifecycleLeave:
			leaves++
		case LifecycleRefresh:
			refreshes++
		}
	}
	if joins == 0 || refreshes != 2*len(w.Advertisers) {
		t.Fatalf("joins %d, leaves %d, refreshes %d (want joins > 0, refreshes %d)",
			joins, leaves, refreshes, 2*len(w.Advertisers))
	}
	if leaves > joins {
		t.Fatalf("more leaves (%d) than joins (%d)", leaves, joins)
	}
	// Bad configs are rejected.
	for _, bad := range []LifecycleConfig{{Rounds: 0}, {Rounds: 10, ChurnFraction: 2}, {Rounds: 10, RefreshEvery: -1}} {
		if _, err := GenerateLifecycle(w, bad); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
}
