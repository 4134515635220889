package core

import (
	"testing"

	"sharedwd/internal/budget"
	"sharedwd/internal/workload"
)

// TestStepSteadyStateZeroAlloc pins the tentpole guarantee: after warm-up, a
// shared-mode round performs zero heap allocations — every per-round
// structure (bids, slab values, top-k lists, rankings, prices, slot results,
// the report's auction map, the click simulator's buffers) is reused from
// engine scratch.
//
// The throttled case holds every advertiser's remaining budget at three of
// its bids, so Section IV binds in every round: the outstanding-ad buckets,
// the ad buffer and the DP grid all have to reach a high-water mark and stay
// there, with both the enumeration and the DP path running. The
// every-bid-moves case re-bids every advertiser after every round. The
// independent case holds the per-auction baseline to the same guarantee,
// and high-overlap runs the shared round on the broad-match preset.
func TestStepSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	cases := []struct {
		name        string
		throttled   bool
		rebid       bool
		independent bool
		highOverlap bool
	}{
		{name: "naive"},
		{name: "throttled", throttled: true},
		{name: "every-bid-moves", rebid: true},
		{name: "independent", independent: true},
		{name: "high-overlap", highOverlap: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wcfg := workload.DefaultConfig()
			if tc.highOverlap {
				wcfg = workload.HighOverlapConfig()
			}
			wcfg.NumAdvertisers = 300
			wcfg.NumPhrases = 24
			wcfg.MinBudget = 1e6 // never exhausts: keeps the display load steady
			wcfg.MaxBudget = 2e6
			w := workload.Generate(wcfg)

			cfg := DefaultConfig()
			cfg.Policy = Naive
			if tc.throttled {
				cfg.Policy = Throttled
				cfg.ThrottleEnumLimit = 3 // four outstanding ads already take the DP
			}
			cfg.Sharing = SharedAggregation
			if tc.independent {
				cfg.Sharing = Independent
			}
			eng, err := New(w, cfg)
			if err != nil {
				t.Fatal(err)
			}

			occ := make([]bool, wcfg.NumPhrases)
			for q := range occ {
				occ[q] = q%2 == 0
			}
			enum, dp := 0, 0
			step := func() {
				if tc.throttled {
					for i := range w.Advertisers {
						a := &w.Advertisers[i]
						a.Budget = eng.Spent(i) + 3*a.Bid
					}
				}
				eng.Step(occ)
				if tc.throttled {
					e, d := throttlePaths(t, eng, occ)
					enum, dp = enum+e, dp+d
				}
				if tc.rebid {
					w.PerturbBids(0.05)
				}
			}
			// Warm-up: past the click horizon several times over, so the
			// pending-ad and scratch buffers reach their steady-state
			// high-water capacities.
			for i := 0; i < 300; i++ {
				step()
			}
			enum, dp = 0, 0
			if avg := testing.AllocsPerRun(200, step); avg != 0 {
				t.Fatalf("steady-state Step allocates %v times per round, want 0", avg)
			}
			if tc.throttled && (enum == 0 || dp == 0) {
				t.Fatalf("measured rounds throttled %d bids by enumeration and %d by DP; want both paths", enum, dp)
			}
		})
	}
}

// throttlePaths reports how many of the round Step just resolved's bids
// Section IV actually throttled, by path: exact enumeration (outstanding
// ads within ThrottleEnumLimit) and the currency-grid DP (beyond it). It
// re-derives throttledBid's branch from the round's participant union and
// each participant's exact auction count: Step leaves its scratch in place,
// and displays register ads but charge nothing, so every remaining budget
// is still what scoring saw.
func throttlePaths(t *testing.T, e *Engine, occurring []bool) (enum, dp int) {
	t.Helper()
	for i, a := range e.w.Advertisers {
		m := 0
		for q, occ := range occurring {
			if occ && e.w.Interests[q].Contains(i) {
				m++
			}
		}
		if inUnion := e.scr.part.Contains(i); inUnion != (m > 0) {
			t.Fatalf("advertiser %d: in participant union %v, in %d occurring auctions", i, inUnion, m)
		}
		if m == 0 || !e.active[i] || e.Remaining(i) <= 0 {
			continue
		}
		prices, _ := e.out.Advertiser(i)
		omega := 0.0
		for _, p := range prices {
			omega += p
		}
		switch {
		case omega <= e.Remaining(i)-float64(m)*a.Bid:
		case len(prices) <= e.cfg.ThrottleEnumLimit:
			enum++
		default:
			dp++
		}
	}
	return enum, dp
}

// TestStepSteadyStateZeroAllocPaced extends the guarantee to the pacing
// subsystem: with a ledger, a pacing controller (synced every round: the
// controller step runs each Step, not just the fast path), and a live
// lifecycle schedule attached, the steady-state round still
// performs zero heap allocations — all pacing state is preallocated, the
// per-round sync and factor reads are allocation-free, and the lifecycle
// replay uses a pinned callback.
func TestStepSteadyStateZeroAllocPaced(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	wcfg := workload.DefaultConfig()
	wcfg.NumAdvertisers = 300
	wcfg.NumPhrases = 24
	wcfg.MinBudget = 1e6 // never exhausts: keeps the display load steady
	wcfg.MaxBudget = 2e6
	w := workload.Generate(wcfg)

	budgets := make([]float64, len(w.Advertisers))
	for i, a := range w.Advertisers {
		budgets[i] = a.Budget
	}
	ledger := budget.NewLedger(budgets)
	// A refresh tail keeps lifecycle events pending past warm-up, so the
	// steady-state rounds measured below exercise the event-replay path.
	events := make([]workload.LifecycleEvent, 0, 1200)
	for r := 0; r < 1200; r += 2 {
		events = append(events, workload.LifecycleEvent{Round: r, Kind: workload.LifecycleRefresh, Advertiser: r % len(budgets)})
	}
	lc, err := workload.NewLifecycle(len(budgets), events)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := budget.DefaultPacerConfig()
	pcfg.Horizon = 1e6 // target curve binds: the controller actively throttles
	pacer, err := budget.NewPacer(ledger, budgets, pcfg, lc)
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.Policy = Naive
	cfg.Sharing = SharedAggregation
	cfg.Ledger = ledger
	cfg.Pacer = pacer
	cfg.Lifecycle = lc
	eng, err := New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}

	occ := make([]bool, wcfg.NumPhrases)
	for q := range occ {
		occ[q] = q%2 == 0
	}
	for i := 0; i < 300; i++ {
		eng.Step(occ)
	}
	if avg := testing.AllocsPerRun(200, func() { eng.Step(occ) }); avg != 0 {
		t.Fatalf("paced steady-state Step allocates %v times per round, want 0", avg)
	}
	if m := pacer.Metrics(); m.Throttled == 0 {
		t.Fatal("pacing never engaged — the zero-alloc claim did not cover the controller's active path")
	}
}
