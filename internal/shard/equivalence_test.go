package shard

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"sharedwd/internal/budget"
	"sharedwd/internal/core"
	"sharedwd/internal/workload"
)

// detOutcome is a pure click-fate function (splitmix64 over the display
// facts), so every simulator that displays the same ad in the same round
// sees the same click — the determinism the equivalence property needs.
// The price is deliberately excluded from the hash: it reflects budget
// state, which transiently differs between fleets at exhaustion edges, and
// hashing it would turn a one-ulp price difference into a flipped click
// fate that compounds. CTR comes from the immutable workload, so it adds
// per-slot variety without breaking alignment.
func detOutcome(horizon int) workload.OutcomeFunc {
	return func(adv int, price, ctr float64, round int) (bool, int) {
		x := uint64(adv)*0x9E3779B97F4A7C15 ^ math.Float64bits(ctr) ^ uint64(round)*0xBF58476D1CE4E5B9
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
		clicked := float64(x>>40)/float64(1<<24) < ctr
		delay := 1 + int((x&0xFFFF)%uint64(horizon-1))
		return clicked, delay
	}
}

// shardedFleet is the equivalence tests' hand-built analogue of Server's
// engine layer: partitioned sub-workloads, one engine per shard, one
// central ledger — without the round loops, so rounds can be driven in
// lockstep with a single reference engine.
type shardedFleet struct {
	engines []*core.Engine
	idx     *workload.PartitionIndex
	ledger  *budget.Ledger
	pacer   *budget.Pacer
}

// newFleet builds the fleet over the phrase → shard assignment shardOf;
// pcfg, when non-nil, attaches one shared pacing controller over the
// central ledger (plus ecfg.Lifecycle, if set) to every shard's engine —
// the production shard.New wiring.
func newFleet(t *testing.T, w *workload.Workload, shardOf []int, shards int, ecfg core.Config, pcfg *budget.PacerConfig) *shardedFleet {
	t.Helper()
	parts, idx, err := workload.Partition(w, shardOf, shards)
	if err != nil {
		t.Fatal(err)
	}
	budgets := make([]float64, len(w.Advertisers))
	for i, a := range w.Advertisers {
		budgets[i] = a.Budget
	}
	f := &shardedFleet{idx: idx, ledger: budget.NewLedger(budgets)}
	ecfg.Ledger = f.ledger
	if pcfg != nil {
		f.pacer, err = budget.NewPacer(f.ledger, budgets, *pcfg, ecfg.Lifecycle)
		if err != nil {
			t.Fatal(err)
		}
		ecfg.Pacer = f.pacer
	}
	for s := 0; s < shards; s++ {
		eng, err := core.New(parts[s], ecfg)
		if err != nil {
			t.Fatal(err)
		}
		f.engines = append(f.engines, eng)
	}
	return f
}

// step drives one lockstep round: the global occurrence vector is sliced
// per shard and every shard's engine steps concurrently (the round loops
// of the real server run on separate goroutines too, sharing only the
// ledger). Returns each shard's report.
func (f *shardedFleet) step(occ []bool) []core.RoundReport {
	occL := make([][]bool, len(f.engines))
	for s, eng := range f.engines {
		_ = eng
		occL[s] = make([]bool, len(f.idx.GlobalID[s]))
	}
	for q, on := range occ {
		if on {
			occL[f.idx.ShardOf[q]][f.idx.LocalID[q]] = true
		}
	}
	reps := make([]core.RoundReport, len(f.engines))
	var wg sync.WaitGroup
	for s := range f.engines {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			reps[s] = f.engines[s].Step(occL[s])
		}(s)
	}
	wg.Wait()
	return reps
}

func (f *shardedFleet) drain() {
	var wg sync.WaitGroup
	for _, eng := range f.engines {
		wg.Add(1)
		go func(eng *core.Engine) {
			defer wg.Done()
			eng.Drain()
		}(eng)
	}
	wg.Wait()
}

func equivalenceWorkloadConfig(minBudget, maxBudget float64) workload.Config {
	wcfg := workload.DefaultConfig()
	wcfg.NumAdvertisers = 180
	wcfg.NumPhrases = 20
	wcfg.NumTopics = 4
	wcfg.Seed = 23
	wcfg.MinBudget, wcfg.MaxBudget = minBudget, maxBudget
	return wcfg
}

// randomAssignment is an arbitrary placement that ignores sharing and load
// and leaves no shard empty: phrase q goes to shard perm[q] mod shards for
// a seeded permutation perm.
func randomAssignment(phrases, shards int, seed int64) []int {
	shardOf := rand.New(rand.NewSource(seed)).Perm(phrases)
	for q := range shardOf {
		shardOf[q] %= shards
	}
	return shardOf
}

// TestShardedEquivalenceUnlimitedBudgets is the exactness half of the
// property: with budgets that never bind, a sharded fleet (the fragment
// partition or an arbitrary one, either budget policy, shards stepping
// concurrently, either quality regime) resolves every auction with exactly
// the winner sets and prices of one reference engine over the same workload
// and round sequence. In the per-phrase-quality regime each shard builds
// its own merge-sort forest over its phrases, and the threshold algorithm
// is exact on any.
func TestShardedEquivalenceUnlimitedBudgets(t *testing.T) {
	for _, tc := range []struct {
		name      string
		policy    core.BudgetPolicy
		random    bool // randomAssignment instead of assign
		shards    int
		perPhrase bool
	}{
		{"naive/random/4", core.Naive, true, 4, false},
		{"throttled/random/4", core.Throttled, true, 4, false},
		{"throttled/fragment/3", core.Throttled, false, 3, false},
		{"naive/fragment/8", core.Naive, false, 8, false},
		{"per-phrase/throttled/random/4", core.Throttled, true, 4, true},
		{"per-phrase/naive/fragment/3", core.Naive, false, 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wcfg := equivalenceWorkloadConfig(1e9, 1e9)
			wcfg.PerPhraseQuality = tc.perPhrase
			ecfg := core.DefaultConfig()
			ecfg.Policy = tc.policy
			ecfg.ClickOutcome = detOutcome(ecfg.ClickHorizon)

			single, err := core.New(workload.Generate(wcfg), ecfg)
			if err != nil {
				t.Fatal(err)
			}
			wFleet := workload.Generate(wcfg)
			shardOf := assign(wFleet, tc.shards)
			if tc.random {
				shardOf = randomAssignment(wcfg.NumPhrases, tc.shards, 31)
			}
			fleet := newFleet(t, wFleet, shardOf, tc.shards, ecfg, nil)

			occRng := rand.New(rand.NewSource(99))
			occ := make([]bool, wcfg.NumPhrases)
			for round := 0; round < 60; round++ {
				for q := range occ {
					occ[q] = occRng.Float64() < wFleet.Rates[q]
				}
				repS := single.Step(occ)
				reps := fleet.step(occ)
				for q, on := range occ {
					if !on {
						continue
					}
					sh, local := fleet.idx.ShardOf[q], fleet.idx.LocalID[q]
					want := repS.Auctions[q]
					got := reps[sh].Auctions[local]
					if len(want) != len(got) {
						t.Fatalf("round %d phrase %d: %d slots sharded vs %d single", round, q, len(got), len(want))
					}
					for j := range want {
						if got[j] != want[j] {
							t.Fatalf("round %d phrase %d slot %d: sharded %+v, single %+v", round, q, j, got[j], want[j])
						}
					}
				}
			}
			single.Drain()
			fleet.drain()
			if s, f := single.Stats(), totalStats(fleet); s.ClicksCharged != f.ClicksCharged || s.AdsDisplayed != f.AdsDisplayed ||
				tc.perPhrase != (f.SortedAccesses > 0) {
				t.Fatalf("click accounting diverged: single %+v, fleet %+v", s, f)
			}
			singleSpend := single.Stats().Revenue
			if fleetSpend := fleet.ledger.TotalSpent(); math.Abs(singleSpend-fleetSpend) > 1e-6 {
				t.Fatalf("total spend %v sharded vs %v single", fleetSpend, singleSpend)
			}
		})
	}
}

func totalStats(f *shardedFleet) core.Stats {
	var total core.Stats
	for _, eng := range f.engines {
		total = total.Add(eng.Stats())
	}
	return total
}

// TestShardedEquivalenceBindingBudgets is the accounting half: when
// budgets bind, per-advertiser spend respects the budget exactly on both
// sides, and total spend matches within accounting order (the only
// divergence source: which of a round's simultaneous clicks hits an
// almost-empty budget first).
func TestShardedEquivalenceBindingBudgets(t *testing.T) {
	wcfg := equivalenceWorkloadConfig(1, 8)
	ecfg := core.DefaultConfig()
	ecfg.Policy = core.Naive // naive spends fastest: maximal budget-edge traffic
	ecfg.ClickOutcome = detOutcome(ecfg.ClickHorizon)

	wSingle := workload.Generate(wcfg)
	budgets := make([]float64, len(wSingle.Advertisers))
	for i, a := range wSingle.Advertisers {
		budgets[i] = a.Budget
	}
	single, err := core.New(wSingle, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	wFleet := workload.Generate(wcfg)
	fleet := newFleet(t, wFleet, assign(wFleet, 4), 4, ecfg, nil)

	occRng := rand.New(rand.NewSource(99))
	occ := make([]bool, wcfg.NumPhrases)
	for round := 0; round < 80; round++ {
		for q := range occ {
			occ[q] = occRng.Float64() < wFleet.Rates[q]
		}
		single.Step(occ)
		fleet.step(occ)
	}
	single.Drain()
	fleet.drain()

	for i, b := range budgets {
		if got := single.Spent(i); got > b+1e-9 {
			t.Fatalf("single: advertiser %d spent %v over budget %v", i, got, b)
		}
		if got := fleet.ledger.Spent(i); got > b+1e-9 {
			t.Fatalf("sharded: advertiser %d spent %v over budget %v", i, got, b)
		}
	}
	singleSpend := single.Stats().Revenue
	fleetSpend := fleet.ledger.TotalSpent()
	if singleSpend <= 0 || fleetSpend <= 0 {
		t.Fatalf("degenerate run: spend %v single, %v sharded", singleSpend, fleetSpend)
	}
	// Budget-edge charge order is the only divergence; it is a per-click
	// effect, not a drift, so totals stay within a few percent.
	tol := 0.05*math.Max(singleSpend, fleetSpend) + 1
	if diff := math.Abs(singleSpend - fleetSpend); diff > tol {
		t.Fatalf("total spend diverged: single %v, sharded %v (diff %v > tol %v)", singleSpend, fleetSpend, diff, tol)
	}
}

// TestShardedEquivalencePacing: with the pacing controller engaged —
// horizon chosen so the target curve binds (factors drop below 1) while
// budgets never do — a sharded fleet's shared controller paces exactly
// like a single engine's. Every engine syncs the controller at the top of
// its Step before charging, so factors for round t are a pure function of
// spend settled through t−1 on both sides; per-advertiser spend and
// terminal factors agree to floating-point accumulation order. A lifecycle
// schedule (join, leave) rides along to pin that engines replay it
// identically across the partition.
func TestShardedEquivalencePacing(t *testing.T) {
	wcfg := equivalenceWorkloadConfig(1e6, 2e6) // never binds over the run
	ecfg := core.DefaultConfig()
	ecfg.Policy = core.Naive
	ecfg.ClickOutcome = detOutcome(ecfg.ClickHorizon)

	// Per-round target = budget/horizon ≈ 0.002–0.004: any advertiser whose
	// ads get clicked at all outspends its curve, so throttling engages.
	pcfg := budget.DefaultPacerConfig()
	pcfg.Horizon = 5e8

	wSingle := workload.Generate(wcfg)
	lc, err := workload.NewLifecycle(len(wSingle.Advertisers), []workload.LifecycleEvent{
		{Round: 10, Kind: workload.LifecycleJoin, Advertiser: 3},
		{Round: 25, Kind: workload.LifecycleLeave, Advertiser: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	ecfg.Lifecycle = lc

	budgets := make([]float64, len(wSingle.Advertisers))
	for i, a := range wSingle.Advertisers {
		budgets[i] = a.Budget
	}
	singleLedger := budget.NewLedger(budgets)
	singlePacer, err := budget.NewPacer(singleLedger, budgets, pcfg, lc)
	if err != nil {
		t.Fatal(err)
	}
	scfg := ecfg
	scfg.Ledger = singleLedger
	scfg.Pacer = singlePacer
	single, err := core.New(wSingle, scfg)
	if err != nil {
		t.Fatal(err)
	}

	wFleet := workload.Generate(wcfg)
	fleet := newFleet(t, wFleet, assign(wFleet, 4), 4, ecfg, &pcfg)

	occRng := rand.New(rand.NewSource(99))
	occ := make([]bool, wcfg.NumPhrases)
	for round := 0; round < 60; round++ {
		for q := range occ {
			occ[q] = occRng.Float64() < wFleet.Rates[q]
		}
		single.Step(occ)
		fleet.step(occ)
	}

	// Factors are a pure function of spend settled through the previous
	// round, so under lockstep stepping they agree exactly. (Drain below
	// advances each shard's rounds without a barrier, so factors computed
	// during drain may see mid-round spend — compare before.)
	for i := range budgets {
		sf, ff := singlePacer.Factor(i), fleet.pacer.Factor(i)
		if math.Abs(sf-ff) > 1e-6 {
			t.Fatalf("advertiser %d: factor %v single vs %v sharded", i, sf, ff)
		}
	}
	// The run must actually have engaged the machinery it claims to test.
	m := fleet.pacer.Metrics()

	single.Drain()
	fleet.drain()

	if s, f := single.Stats(), totalStats(fleet); s.ClicksCharged != f.ClicksCharged || s.AdsDisplayed != f.AdsDisplayed {
		t.Fatalf("click accounting diverged: single %+v, fleet %+v", s, f)
	}
	for i := range budgets {
		ss, fs := singleLedger.Spent(i), fleet.ledger.Spent(i)
		if math.Abs(ss-fs) > 1e-6 {
			t.Fatalf("advertiser %d: spent %v single vs %v sharded", i, ss, fs)
		}
	}
	if m.Throttled == 0 {
		t.Fatal("no advertiser was throttled — the target curve never bound")
	}
	if fleet.pacer.Factor(7) != 0 {
		t.Fatalf("left advertiser's factor = %v, want 0", fleet.pacer.Factor(7))
	}
	if m.Active != len(budgets)-1 {
		t.Fatalf("active = %d, want %d (one join, one leave)", m.Active, len(budgets)-1)
	}
	if fleet.ledger.TotalSpent() <= 0 {
		t.Fatal("degenerate run: no spend")
	}
}
