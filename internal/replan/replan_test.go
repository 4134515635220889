package replan

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"sharedwd/internal/core"
	"sharedwd/internal/sharedagg"
	"sharedwd/internal/workload"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Alpha = 0 },
		func(c *Config) { c.Alpha = 1.5 },
		func(c *Config) { c.WarmupRounds = -1 },
		func(c *Config) { c.CooldownRounds = -1 },
		func(c *Config) { c.CheckEvery = 0 },
		func(c *Config) { c.MaxRatio = 1 },
		func(c *Config) { c.MinKL = 0 },
		func(c *Config) { c.RateFloor = 0 },
		func(c *Config) { c.RateFloor = 0.5 },
	}
	for i, mut := range cases {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestDrift(t *testing.T) {
	same := []float64{0.5, 0.2, 0.9}
	ratio, kl := Drift(same, same, 0.01)
	if ratio != 1 || kl != 0 {
		t.Fatalf("no-drift: ratio %v, kl %v", ratio, kl)
	}
	// One phrase doubles: max ratio 2, positive divergence.
	ratio, kl = Drift([]float64{0.2, 0.5}, []float64{0.4, 0.5}, 0.01)
	if math.Abs(ratio-2) > 1e-12 {
		t.Fatalf("doubled phrase: ratio %v, want 2", ratio)
	}
	if kl <= 0 {
		t.Fatalf("doubled phrase: kl %v, want > 0", kl)
	}
	// Flooring keeps never-seen phrases finite in both directions.
	ratio, kl = Drift([]float64{0}, []float64{1}, 0.01)
	if math.IsInf(ratio, 0) || math.IsNaN(kl) || math.IsInf(kl, 0) {
		t.Fatalf("extreme drift not clamped: ratio %v, kl %v", ratio, kl)
	}
	if math.Abs(ratio-99) > 1e-9 { // 0.99 / 0.01
		t.Fatalf("extreme drift ratio %v, want 99", ratio)
	}
	if empty, kl := func() (float64, float64) { return Drift(nil, nil, 0.01) }(); empty != 1 || kl != 0 {
		t.Fatalf("empty drift: %v, %v", empty, kl)
	}
}

func TestTrackerConverges(t *testing.T) {
	tr := NewTracker([]float64{0.5, 0.5}, 0.1)
	occ := []bool{true, false}
	for i := 0; i < 300; i++ {
		tr.Observe(occ)
	}
	rates := tr.Rates()
	if rates[0] < 0.999 || rates[1] > 0.001 {
		t.Fatalf("tracker failed to converge: %v", rates)
	}
	if tr.Rounds() != 300 {
		t.Fatalf("Rounds = %d", tr.Rounds())
	}
	// RatesInto reuses the buffer.
	buf := make([]float64, 2)
	if got := tr.RatesInto(buf); &got[0] != &buf[0] || got[0] != rates[0] {
		t.Fatal("RatesInto did not fill the provided buffer")
	}
}

// aggressive returns a configuration that reacts within tens of rounds, for
// tests that need a trigger to fire quickly.
func aggressive() Config {
	return Config{
		Alpha:          0.2,
		WarmupRounds:   20,
		CheckEvery:     5,
		MaxRatio:       1.5,
		MinKL:          0.02,
		CooldownRounds: 20,
		RateFloor:      0.01,
	}
}

// driftedOcc returns a deterministic occurrence pattern far from the
// workload's planned rates: the first half of the phrases always occur, the
// rest never do.
func driftedOcc(n int) []bool {
	occ := make([]bool, n)
	for q := range occ {
		occ[q] = q < n/2
	}
	return occ
}

func TestPlannerTriggersAndDelivers(t *testing.T) {
	w := workload.Generate(workload.DefaultConfig())
	eng, err := core.New(w, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(eng.PlanInstance(), aggressive())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	occ := driftedOcc(len(w.Interests))
	var build *Build
	deadline := time.Now().Add(10 * time.Second)
	for build == nil && time.Now().Before(deadline) {
		build = p.Observe(occ)
		if p.Stats().Builds > 0 && build == nil {
			// A rebuild is in flight on the background goroutine; give it a
			// moment, as a round loop's inter-round gap would.
			time.Sleep(time.Millisecond)
		}
	}
	if build == nil {
		t.Fatalf("no build delivered under sustained drift; stats %+v", p.Stats())
	}
	if build.Seq != 1 || build.Inst == nil || build.Prog == nil {
		t.Fatalf("malformed build: %+v", build)
	}
	if build.BuildTime <= 0 {
		t.Fatalf("delivered build reports build time %v", build.BuildTime)
	}
	if err := eng.InstallPlan(build.Inst, build.Prog); err != nil {
		t.Fatalf("installing delivered build: %v", err)
	}
	st := p.Stats()
	if st.Delivered != 1 || st.Builds < 1 {
		t.Fatalf("stats after delivery: %+v", st)
	}
	// The delivered rates became the new baseline: the same traffic no
	// longer counts as drift once the estimate settles.
	planned := p.PlannedRates()
	for q, r := range planned {
		if occ[q] && r < 0.5 {
			t.Fatalf("baseline not adopted: planned[%d] = %v under always-on traffic", q, r)
		}
	}
}

func TestPlannerNoFalseTrigger(t *testing.T) {
	// Traffic that exactly matches the planned rates (deterministic 0/1
	// phrases) must never trigger a rebuild.
	w := workload.Generate(workload.DefaultConfig())
	occ := driftedOcc(len(w.Interests))
	rates := make([]float64, len(w.Interests))
	for q := range rates {
		if occ[q] {
			rates[q] = 1
		}
	}
	if err := w.SetRates(rates); err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(w, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(eng.PlanInstance(), aggressive())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 500; i++ {
		if b := p.Observe(occ); b != nil {
			t.Fatalf("round %d: build delivered with zero drift", i)
		}
	}
	if st := p.Stats(); st.Builds != 0 || st.Checks == 0 {
		t.Fatalf("stats %+v: want checks > 0 and no builds", st)
	}
}

func TestPlannerCloseIdempotent(t *testing.T) {
	w := workload.Generate(workload.DefaultConfig())
	eng, err := core.New(w, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(eng.PlanInstance(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close()
}

// TestSwapEquivalence is the tentpole's correctness pin: an engine that
// hot-swaps to a rebuilt plan mid-stream must produce byte-identical
// winners, prices, clicks, and accounting to an engine that ran the rebuilt
// plan from round zero. Both engines are driven by the same recorded
// occurrence vectors over same-seed workloads, so every random stream
// (clicks, bid walk) is consumed identically — the only degree of freedom
// is the plan, and Lemma 1 says plans cannot change results. Run under
// -race in CI, this also exercises the swap against the builder goroutine.
func TestSwapEquivalence(t *testing.T) {
	wcfg := workload.DefaultConfig()
	wcfg.NumAdvertisers = 300
	wcfg.NumPhrases = 24
	wcfg.Seed = 42
	wSwap := workload.Generate(wcfg)
	wNative := workload.Generate(wcfg)

	ecfg := core.DefaultConfig()
	engSwap, err := core.New(wSwap, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	engNative, err := core.New(wNative, ecfg)
	if err != nil {
		t.Fatal(err)
	}

	// The drifted rate vector: the workload's rates rotated by half the
	// phrase universe.
	n := len(wSwap.Rates)
	drifted := make([]float64, n)
	for q := range drifted {
		drifted[q] = wSwap.Rates[(q+n/2)%n]
	}

	// The native engine runs the drifted-rates plan from round zero.
	inst, _, prog, err := sharedagg.BuildCompiledWithRates(engNative.PlanInstance(), drifted)
	if err != nil {
		t.Fatal(err)
	}
	if err := engNative.InstallPlan(inst, prog); err != nil {
		t.Fatal(err)
	}

	const rounds, swapAt = 600, 300
	rng := rand.New(rand.NewSource(99))
	occ := make([]bool, n)
	for r := 0; r < rounds; r++ {
		if r == swapAt {
			inst, _, prog, err := sharedagg.BuildCompiledWithRates(engSwap.PlanInstance(), drifted)
			if err != nil {
				t.Fatal(err)
			}
			if err := engSwap.InstallPlan(inst, prog); err != nil {
				t.Fatal(err)
			}
		}
		for q := range occ {
			occ[q] = rng.Float64() < drifted[q]
		}
		repSwap := engSwap.Step(occ)
		repNative := engNative.Step(occ)
		compareRounds(t, r, repSwap, repNative)
		// Bids walk identically on both same-seed workloads.
		wSwap.PerturbBids(0.05)
		wNative.PerturbBids(0.05)
	}

	sSwap, sNative := engSwap.Stats(), engNative.Stats()
	// Everything the auctions produced must match exactly; only the
	// materialization cost counters may differ (that is the whole point of
	// replanning — same answers, different cost).
	sSwap.NodesMaterialized, sNative.NodesMaterialized = 0, 0
	if sSwap != sNative {
		t.Fatalf("lifetime stats diverged:\nswap:   %+v\nnative: %+v", sSwap, sNative)
	}
}

func compareRounds(t *testing.T, round int, a, b core.RoundReport) {
	t.Helper()
	if len(a.Auctions) != len(b.Auctions) {
		t.Fatalf("round %d: %d vs %d auctions", round, len(a.Auctions), len(b.Auctions))
	}
	for q, slotsA := range a.Auctions {
		slotsB, ok := b.Auctions[q]
		if !ok || len(slotsA) != len(slotsB) {
			t.Fatalf("round %d phrase %d: slot sets differ (%v vs %v)", round, q, slotsA, slotsB)
		}
		for i := range slotsA {
			if slotsA[i] != slotsB[i] {
				t.Fatalf("round %d phrase %d slot %d: %+v vs %+v", round, q, i, slotsA[i], slotsB[i])
			}
		}
	}
	if len(a.Clicks) != len(b.Clicks) {
		t.Fatalf("round %d: %d vs %d clicks", round, len(a.Clicks), len(b.Clicks))
	}
	for i := range a.Clicks {
		if a.Clicks[i] != b.Clicks[i] {
			t.Fatalf("round %d click %d: %+v vs %+v", round, i, a.Clicks[i], b.Clicks[i])
		}
	}
}

// TestRebuiltPlanMatchesNativeBuild pins determinism: rebuilding under the
// same rates yields a plan with identical expected cost to one built from a
// workload carrying those rates natively, so the post-swap engine pays
// exactly the natively-built per-round cost.
func TestRebuiltPlanMatchesNativeBuild(t *testing.T) {
	w := workload.Generate(workload.DefaultConfig())
	eng, err := core.New(w, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := len(w.Rates)
	drifted := make([]float64, n)
	for q := range drifted {
		drifted[q] = w.Rates[(q+n/2)%n]
	}
	_, rebuilt, _, err := sharedagg.BuildCompiledWithRates(eng.PlanInstance(), drifted)
	if err != nil {
		t.Fatal(err)
	}
	native, err := eng.PlanInstance().WithRates(drifted)
	if err != nil {
		t.Fatal(err)
	}
	nativePlan := sharedagg.Build(native)
	if got, want := rebuilt.ExpectedCost(), nativePlan.ExpectedCost(); got != want {
		t.Fatalf("rebuilt plan cost %v, native %v", got, want)
	}
}
