package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"sharedwd/internal/ta"
	"sharedwd/internal/topk"
	"sharedwd/internal/workload"
)

// The tests in this file cover the engine on a per-phrase-quality workload
// (Section III), where phase 3 is the shared merge-sort forest feeding the
// threshold algorithm. Their names keep the prefix of the standalone engine
// that regime had before it was folded into Engine.

func perPhraseWorkload(seed int64) *workload.Workload {
	cfg := workload.DefaultConfig()
	cfg.NumAdvertisers = 80
	cfg.NumPhrases = 10
	cfg.NumTopics = 3
	cfg.Slots = 3
	cfg.Seed = seed
	cfg.PerPhraseQuality = true
	return workload.Generate(cfg)
}

// topKFor runs the sorted resolver's winner determination for one phrase
// over the given bid vector, without pricing or display.
func topKFor(e *Engine, q, k int, bids []float64) (*topk.List, ta.Stats) {
	s := e.sorted
	s.plan.BeginRound(bids)
	stream := s.plan.Stream(q)
	if stream == nil {
		return topk.New(k), ta.Stats{}
	}
	qualSrc := &ta.SliceSource{IDs: s.byQuality[q], Vals: s.qualVals[q]}
	return ta.TopK(k, stream, qualSrc, func(id int) float64 { return bids[id] * e.w.QualityFor(q, id) })
}

func TestNewSortEngineValidation(t *testing.T) {
	independent := DefaultConfig()
	independent.Sharing = Independent
	if _, err := New(perPhraseWorkload(1), independent); err == nil {
		t.Fatal("a per-phrase-quality workload with Independent sharing should be rejected")
	}
	bad := DefaultConfig()
	bad.ClickHorizon = 0
	if _, err := New(perPhraseWorkload(1), bad); err == nil {
		t.Fatal("invalid click model should be rejected")
	}
	if _, err := New(perPhraseWorkload(1), DefaultConfig()); err != nil {
		t.Fatalf("default config on a per-phrase-quality workload: %v", err)
	}
}

// TestSortEngineMatchesBruteForce: for every phrase, the TA-over-shared-sort
// pipeline returns exactly the top advertisers by b_i·c_i^q.
func TestSortEngineMatchesBruteForce(t *testing.T) {
	w := perPhraseWorkload(2)
	eng, err := New(w, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bids := w.Bids()
	for q := 0; q < len(w.Interests); q++ {
		got, st := topKFor(eng, q, 4, bids)
		ids := w.Interests[q].Indices()
		sort.Slice(ids, func(a, b int) bool {
			sa := bids[ids[a]] * w.QualityFor(q, ids[a])
			sb := bids[ids[b]] * w.QualityFor(q, ids[b])
			if sa != sb {
				return sa > sb
			}
			return ids[a] < ids[b]
		})
		want := ids
		if len(want) > 4 {
			want = want[:4]
		}
		gotIDs := got.IDs()
		if len(gotIDs) != len(want) {
			t.Fatalf("phrase %d: got %v want %v", q, gotIDs, want)
		}
		for i := range want {
			if gotIDs[i] != want[i] {
				t.Fatalf("phrase %d rank %d: got %v want %v", q, i, gotIDs, want)
			}
		}
		if st.SortedAccesses > 2*len(ids) {
			t.Fatalf("phrase %d: TA overran (%d accesses for %d advertisers)", q, st.SortedAccesses, len(ids))
		}
	}
}

func TestSortEngineStepResolvesAndPrices(t *testing.T) {
	w := perPhraseWorkload(3)
	eng, err := New(w, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	occ := make([]bool, len(w.Interests))
	occ[0], occ[2], occ[5] = true, true, true
	rep := eng.Step(occ)
	if len(rep.Auctions) != 3 {
		t.Fatalf("resolved %d auctions, want 3", len(rep.Auctions))
	}
	for q, slots := range rep.Auctions {
		seen := map[int]bool{}
		for _, s := range slots {
			if seen[s.Advertiser] {
				t.Fatalf("phrase %d: advertiser %d twice", q, s.Advertiser)
			}
			seen[s.Advertiser] = true
			if s.PricePaid < 0 || s.PricePaid > w.Advertisers[s.Advertiser].Bid+1e-9 {
				t.Fatalf("phrase %d: price %v vs bid %v", q, s.PricePaid, w.Advertisers[s.Advertiser].Bid)
			}
		}
	}
	st := eng.Stats()
	if st.AuctionsResolved != 3 || st.SortedAccesses == 0 || st.MergePulls == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestSortEngineBudgetsRespected: end-of-run spend never exceeds budgets,
// under either policy.
func TestSortEngineBudgetsRespected(t *testing.T) {
	for _, policy := range []BudgetPolicy{Naive, Throttled} {
		w := perPhraseWorkload(4)
		for i := range w.Advertisers {
			w.Advertisers[i].Budget = 3 + float64(i%5)
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
				t.Fatalf("%v: advertiser %d spent %v of %v", policy, i, eng.Spent(i), w.Advertisers[i].Budget)
			}
		}
	}
}

// TestQuickSortEngineWinnersValid: winners always come from the phrase's
// interest set, in descending order of round bid times c_i^q.
func TestQuickSortEngineWinnersValid(t *testing.T) {
	f := func(seed int64) bool {
		w := perPhraseWorkload(seed%50 + 1)
		eng, err := New(w, DefaultConfig())
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		occ := make([]bool, len(w.Interests))
		for q := range occ {
			occ[q] = rng.Intn(2) == 0
		}
		rep := eng.Step(occ)
		for q, slots := range rep.Auctions {
			if !occ[q] {
				return false
			}
			prev := -1.0
			for _, s := range slots {
				if !w.Interests[q].Contains(s.Advertiser) {
					return false
				}
				score := eng.scr.roundBid[s.Advertiser] * w.QualityFor(q, s.Advertiser)
				if prev >= 0 && score > prev+1e-9 {
					return false // slots must be in descending score order
				}
				prev = score
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSortEngineSharedWorkCounter: with heavy overlap, per-round merge
// pulls are far below the independent-sort bound.
func TestSortEngineSharedWorkCounter(t *testing.T) {
	w := perPhraseWorkload(6)
	eng, err := New(w, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	occ := make([]bool, len(w.Interests))
	for q := range occ {
		occ[q] = true
	}
	eng.Step(occ)
	st := eng.Stats()
	// Upper bound if every phrase fully sorted privately: Σ_q |I_q|·log.
	full := 0
	for q := range w.Interests {
		n := w.Interests[q].Count()
		full += n * bitsLen(n)
	}
	if st.MergePulls >= full {
		t.Fatalf("merge pulls %d not below independent full-sort bound %d", st.MergePulls, full)
	}
}

func bitsLen(n int) int {
	b := 0
	for n > 0 {
		n >>= 1
		b++
	}
	return b
}

// TestPerPhraseHonoursPolicy runs the Section IV gaming scenario on a
// per-phrase-quality workload. Under Throttled, the near-broke gamer's
// round bid falls below its stated bid while its ads await clicks and its
// budget still covers that bid; under Naive it wins past its budget, and
// the engine counts the clicks it forgives.
func TestPerPhraseHonoursPolicy(t *testing.T) {
	const rounds = 300
	run := func(policy BudgetPolicy) (throttledRounds int, st Stats) {
		w, cfg, err := gamingSetup(11, policy)
		if err != nil {
			t.Fatal(err)
		}
		w.Quality = [][]float64{make([]float64, len(w.Advertisers))}
		for i, a := range w.Advertisers {
			w.Quality[0][i] = a.Quality * (0.9 + 0.02*float64(i))
		}
		eng, err := New(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		gamer := w.Advertisers[0]
		for r := 0; r < rounds; r++ {
			outstanding := eng.Report(0).Outstanding
			eng.Step([]bool{true})
			// Clicks are charged before bids are set, so Remaining after the
			// step is the budget the round bid was computed from.
			if outstanding > 0 && eng.Remaining(0) >= gamer.Bid && eng.scr.roundBid[0] < gamer.Bid {
				throttledRounds++
			}
		}
		eng.Drain()
		if spent := eng.Spent(0); spent > gamer.Budget+1e-9 {
			t.Fatalf("%v: gamer charged %v above budget %v", policy, spent, gamer.Budget)
		}
		return throttledRounds, eng.Stats()
	}
	throttled, tst := run(Throttled)
	if throttled == 0 {
		t.Fatalf("Throttled: the gamer never bid below its stated bid with ads outstanding (stats %+v)", tst)
	}
	_, nst := run(Naive)
	if nst.ClicksForgiven == 0 || nst.ForgivenValue <= 0 {
		t.Fatalf("Naive: no forgiven clicks counted (stats %+v)", nst)
	}
	if tst.ForgivenValue >= nst.ForgivenValue {
		t.Fatalf("Throttled forgave %v, Naive %v: throttling should forgive less", tst.ForgivenValue, nst.ForgivenValue)
	}
}

// TestSortedRunsMatchScan checks every round of a throttled per-phrase
// engine: each occurring phrase's run is exactly its members' top-(k+1) by
// round bid times c_i^q, positive scores only, in Entry.Less order. Every
// participant is scored in this regime, so the slab holds the round's bid
// for every member the scan reads. Budgets bind, and from round 200 on all
// but every tenth advertiser has left, so phrases run short of bidders and
// the zero scores of inactive members must stay out of the runs.
func TestSortedRunsMatchScan(t *testing.T) {
	w := perPhraseWorkload(8)
	var leaves []workload.LifecycleEvent
	for i := range w.Advertisers {
		w.Advertisers[i].Budget = 2 + float64(i%7)
		if i%10 != 0 {
			leaves = append(leaves, workload.LifecycleEvent{Round: 200, Kind: workload.LifecycleLeave, Advertiser: i})
		}
	}
	lc, err := workload.NewLifecycle(len(w.Advertisers), leaves)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ThrottleEnumLimit = 3
	cfg.Lifecycle = lc
	eng, err := New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	k1 := len(w.SlotFactors) + 1
	rng := rand.New(rand.NewSource(8))
	occ := make([]bool, len(w.Interests))
	var want []topk.Entry
	shortRuns := 0
	for r := 0; r < 400; r++ {
		for q := range occ {
			occ[q] = rng.Intn(3) > 0
		}
		eng.Step(occ)
		for q, o := range occ {
			if !o {
				continue
			}
			want = want[:0]
			for _, i := range w.Interests[q].Indices() {
				if s := eng.scr.roundBid[i] * w.QualityFor(q, i); s > 0 {
					want = append(want, topk.Entry{ID: i, Score: s})
				}
			}
			sort.Slice(want, func(a, b int) bool { return want[a].Less(want[b]) })
			if len(want) < k1 {
				shortRuns++
			}
			want = want[:min(len(want), k1)]
			got := eng.run(q)
			if len(got) != len(want) {
				t.Fatalf("round %d phrase %d: run %v, want %v", r, q, got, want)
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("round %d phrase %d rank %d: run %v, want %v", r, q, j, got, want)
				}
			}
		}
		w.PerturbBids(0.1)
	}
	if shortRuns == 0 {
		t.Fatal("no phrase ever ran short of bidders; the budgets do not bind")
	}
}
