package core

import (
	"math/rand"
	"testing"

	"sharedwd/internal/sharedagg"
	"sharedwd/internal/workload"
)

// TestCacheGovernorBackoff pins the governor's schedule on synthetic hit
// shares: the first window of an epoch is never judged, a cold judged
// window starts a fallback stretch, every failed probe doubles the next
// stretch up to the cap, and one warm window resets it.
func TestCacheGovernorBackoff(t *testing.T) {
	var g cacheGovernor
	g.reset()
	window := func(materialized, cached int) {
		t.Helper()
		for i := 0; i < cacheWindow; i++ {
			if g.bypass > 0 {
				t.Fatalf("fallback started mid-window (round %d)", i)
			}
			g.observe(materialized, cached)
		}
	}
	bypassStretch := func() int {
		n := 0
		for g.bypass > 0 {
			n++
			if g.endBypassRound() != (g.bypass == 0) {
				t.Fatal("endBypassRound reported the probe on the wrong round")
			}
		}
		return n
	}

	window(100, 0) // filling: cold, but not judged
	if g.bypass != 0 {
		t.Fatal("the filling window of a new epoch started a fallback stretch")
	}
	g.observe(0, 0) // empty rounds are not part of any window
	for want := cacheMinBackoff; ; want = min(2*want, cacheMaxBackoff) {
		window(100, 0)
		if got := bypassStretch(); got != want {
			t.Fatalf("fallback stretch of %d rounds, want %d", got, want)
		}
		window(100, 0) // the probe's filling window
		if g.bypass != 0 {
			t.Fatal("a probe's filling window was judged")
		}
		if want == cacheMaxBackoff && g.backoff == cacheMaxBackoff {
			break
		}
	}
	// Just above the break-even is warm: stay, and forget the back-off.
	warm := int(cacheBreakEven*1000) + 1
	window(1000-warm, warm)
	if g.bypass != 0 || g.backoff != cacheMinBackoff {
		t.Fatalf("after a warm window: bypass %d, backoff %d; want 0, %d", g.bypass, g.backoff, cacheMinBackoff)
	}
	window(1000-warm+2, warm-2) // just under: cold
	if got := bypassStretch(); got != cacheMinBackoff {
		t.Fatalf("fallback stretch after a warm spell of %d rounds, want %d", got, cacheMinBackoff)
	}
}

// TestEngineCacheFallback drives one engine through a cold bid stream
// (every bid moves every round), a steady one (no bid moves) and a plan
// swap, next to a cache-off twin: the cold engine must end up on the
// full-run fallback (bypass counter rising, NodesCached flat), the steady
// one must probe its way back onto the cache, InstallPlan must restart the
// governor with the cache epoch, and in every round and both modes
// Materialized + Cached must equal the twin's Materialized.
func TestEngineCacheFallback(t *testing.T) {
	wcfg := workload.DefaultConfig()
	wcfg.NumAdvertisers = 300
	wcfg.NumPhrases = 24
	wcfg.MinBudget = 1e6
	wcfg.MaxBudget = 2e6
	cfg := DefaultConfig()
	cfg.Policy = Naive

	var engs [2]*Engine // cached, cache off
	var worlds [2]*workload.Workload
	for i := range engs {
		cfg.IncrementalCache = i == 0
		worlds[i] = workload.Generate(wcfg)
		eng, err := New(worlds[i], cfg)
		if err != nil {
			t.Fatal(err)
		}
		engs[i] = eng
	}
	eng := engs[0]
	occ := make([]bool, wcfg.NumPhrases)
	round := 0
	step := func(perturb bool) (bypassed bool) {
		t.Helper()
		for q := range occ {
			occ[q] = (q+round)%3 != 0
		}
		round++
		before := eng.Stats()
		rep, twin := eng.Step(occ), engs[1].Step(occ)
		after := eng.Stats()
		if rep.Materialized+rep.Cached != twin.Materialized {
			t.Fatalf("round %d: materialized %d + cached %d, cache-off twin materialized %d",
				round, rep.Materialized, rep.Cached, twin.Materialized)
		}
		bypassed = after.CacheBypassedRounds > before.CacheBypassedRounds
		if bypassed && (rep.Cached != 0 || after.NodesCached != before.NodesCached) {
			t.Fatalf("round %d: a fallback round reported %d cached nodes", round, rep.Cached)
		}
		if perturb {
			for _, w := range worlds {
				w.PerturbBids(0.05)
			}
		}
		return bypassed
	}

	// Cold: the filling window and one judged window, then the fallback.
	for i := 0; i < 2*cacheWindow; i++ {
		if step(true) {
			t.Fatalf("round %d: on the fallback before a judged window closed", round)
		}
	}
	for i := 0; i < cacheMinBackoff; i++ {
		if !step(true) {
			t.Fatalf("round %d: a cold engine is not on the fallback", round)
		}
	}
	cold := eng.Stats()
	if cold.CacheBypassedRounds != cacheMinBackoff {
		t.Fatalf("%d bypassed rounds, want %d", cold.CacheBypassedRounds, cacheMinBackoff)
	}
	// Still cold: the probe fails and the next stretch is twice as long.
	for i := 0; i < 2*cacheWindow; i++ {
		step(true)
	}
	for i := 0; i < 2*cacheMinBackoff-1; i++ {
		if !step(true) {
			t.Fatalf("round %d: the failed probe's fallback stretch ended early", round)
		}
	}

	// Steady from here: the last fallback round, then the probe sticks.
	step(false)
	for i := 0; i < 6*cacheWindow; i++ {
		if step(false) {
			t.Fatalf("round %d: a steady engine fell back", round)
		}
	}
	steady := eng.Stats()
	if steady.NodesCached <= cold.NodesCached {
		t.Fatalf("NodesCached %d after the steady stretch, %d before: the probe never re-entered the cache",
			steady.NodesCached, cold.NodesCached)
	}
	if eng.gov.backoff != cacheMinBackoff {
		t.Fatalf("back-off %d after warm windows, want %d", eng.gov.backoff, cacheMinBackoff)
	}

	// Cold again until the fallback is live, then swap the plan: the new
	// cache epoch starts on the incremental path with a fresh governor.
	for !step(true) {
	}
	base := eng.PlanInstance()
	rates := make([]float64, len(base.Queries))
	for q := range rates {
		rates[q] = base.Queries[(q+1)%len(rates)].Rate
	}
	inst, _, prog, err := sharedagg.BuildCompiledWithRates(base, rates)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.InstallPlan(inst, prog); err != nil {
		t.Fatal(err)
	}
	if err := engs[1].InstallPlan(inst, prog); err != nil {
		t.Fatal(err)
	}
	if eng.gov != (cacheGovernor{backoff: cacheMinBackoff, filling: true}) {
		t.Fatalf("governor after InstallPlan: %+v", eng.gov)
	}
	if step(false) {
		t.Fatal("the round after InstallPlan ran on the fallback")
	}
}

// TestEngineCacheStaysOnSteadyServing is the other side of the fallback: on
// the serving benchmarks' engine (Naive, 400 × 24, steady bids) the cache
// hits almost always and the governor must leave it alone, however the
// round's batch falls — whether 32 queries pick the occurring phrases or
// only a couple do, so that cones are first needed long after the epoch
// began and their first materialization counts as a miss.
func TestEngineCacheStaysOnSteadyServing(t *testing.T) {
	for _, batch := range []int{32, 2} {
		wcfg := workload.DefaultConfig() // 400 × 24
		wcfg.MinBudget = 1e6
		wcfg.MaxBudget = 2e6
		w := workload.Generate(wcfg)
		cfg := DefaultConfig()
		cfg.Policy = Naive
		cfg.IncrementalCache = true
		eng, err := New(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for _, r := range w.Rates {
			total += r
		}
		rng := rand.New(rand.NewSource(int64(batch)))
		occ := make([]bool, len(w.Rates))
		const rounds = 3000
		for r := 0; r < rounds; r++ {
			clear(occ)
			for i := 0; i < batch; i++ {
				// One query, drawn by phrase rate.
				x := rng.Float64() * total
				q := 0
				for ; q < len(w.Rates)-1 && x >= w.Rates[q]; q++ {
					x -= w.Rates[q]
				}
				occ[q] = true
			}
			eng.Step(occ)
		}
		st := eng.Stats()
		if st.CacheBypassedRounds != 0 {
			t.Errorf("batch %d: %d of %d steady rounds ran on the fallback", batch, st.CacheBypassedRounds, rounds)
		}
		if hit := float64(st.NodesCached) / float64(st.NodesCached+st.NodesMaterialized); hit < 0.9 {
			t.Errorf("batch %d: hit share %.3f on steady bids", batch, hit)
		}
	}
}
