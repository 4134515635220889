// Benchmark harness: one benchmark per table/figure/claim of the paper's
// evaluation, plus the ablations DESIGN.md calls out. Each benchmark both
// measures wall-clock cost (testing.B) and reports the paper's own metric
// (expected plan cost, scans, over-delivery, ...) via b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates the numbers EXPERIMENTS.md
// records. Round and serving speed are not timed here: the pinned
// benchmark in benchmark/ is the one instrument for those.
package sharedwd

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"sharedwd/internal/analytics"
	"sharedwd/internal/bitset"
	"sharedwd/internal/budget"
	"sharedwd/internal/core"
	"sharedwd/internal/nonsep"
	"sharedwd/internal/plan"
	"sharedwd/internal/sharedagg"
	"sharedwd/internal/sharedsort"
	"sharedwd/internal/ta"
	"sharedwd/internal/topk"
	"sharedwd/internal/workload"
)

// BenchmarkFig4SharedPlanCost regenerates Figure 4: expected plan cost vs
// query probability on the paper's 20-advertiser / 10-query coin-flip
// construction. The naive/shared expected costs are reported as metrics.
func BenchmarkFig4SharedPlanCost(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	base := plan.RandomCoinFlipInstance(rng, 20, 10, 1)
	for _, sr := range []float64{0.2, 0.5, 1.0} {
		b.Run(fmt.Sprintf("sr=%.1f", sr), func(b *testing.B) {
			inst := base.UniformRates(sr)
			var shared, naive float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := sharedagg.Build(inst)
				shared = s.ExpectedCost()
				naive = plan.NaivePlan(inst).ExpectedCost()
			}
			b.ReportMetric(shared, "sharedE/round")
			b.ReportMetric(naive, "naiveE/round")
			b.ReportMetric(100*(1-shared/naive), "saving%")
		})
	}
}

// BenchmarkFig5ExactVsHeuristic regenerates the Figure-5 NP-complete rows'
// empirical face: the exponential exact planner against the polynomial
// heuristic on growing semilattice instances.
func BenchmarkFig5ExactVsHeuristic(b *testing.B) {
	for _, n := range []int{5, 7} {
		rng := rand.New(rand.NewSource(2))
		inst := plan.RandomCoinFlipInstance(rng, n, 3, 1)
		b.Run(fmt.Sprintf("exact/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				plan.ExactMinTotalCost(inst)
			}
		})
		b.Run(fmt.Sprintf("heuristic/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sharedagg.Build(inst)
			}
		})
	}
}

// BenchmarkShoeStoreSharing regenerates the Section II-B worked example:
// two phrases over 200 general + 40 sports + 30 fashion stores. The
// reported metric is the aggregation-operation saving of sharing (the
// paper claims "40% fewer").
func BenchmarkShoeStoreSharing(b *testing.B) {
	const general, sports, fashion = 200, 40, 30
	n := general + sports + fashion
	boots := NewAdvertiserSet(n)
	heels := NewAdvertiserSet(n)
	for i := 0; i < general; i++ {
		boots.Add(i)
		heels.Add(i)
	}
	for i := general; i < general+sports; i++ {
		boots.Add(i)
	}
	for i := general + sports; i < n; i++ {
		heels.Add(i)
	}
	inst := plan.MustInstance(n, []plan.Query{{Vars: boots, Rate: 1}, {Vars: heels, Rate: 1}})
	var saving float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		shared := sharedagg.Build(inst)
		naive := plan.NaivePlan(inst)
		saving = 100 * (1 - float64(shared.TotalCost())/float64(naive.TotalCost()))
	}
	b.ReportMetric(saving, "saving%")
}

// BenchmarkPlanQuality is ablation A1: naive vs fragment-only vs full
// heuristic expected cost on a larger topic-structured instance.
func BenchmarkPlanQuality(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	inst := plan.RandomOverlapInstance(rng, 200, 40, 8, 0.2, 0.9)
	builders := []struct {
		name  string
		build func(*plan.Instance) *plan.Plan
	}{
		{"naive", plan.NaivePlan},
		{"fragments", sharedagg.BuildFragmentOnly},
		{"full", sharedagg.Build},
	}
	for _, bd := range builders {
		b.Run(bd.name, func(b *testing.B) {
			var cost float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cost = bd.build(inst).ExpectedCost()
			}
			b.ReportMetric(cost, "expectedE/round")
		})
	}
}

// BenchmarkSharedSortVsIndependent regenerates Section III's claim: shared
// on-demand merge operators cut per-round pulls when phrases overlap and
// only the top of each stream is consumed.
func BenchmarkSharedSortVsIndependent(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	n := 1024
	interests := make([]AdvertiserSet, 8)
	rates := make([]float64, 8)
	for q := range interests {
		s := NewAdvertiserSet(n)
		for a := 0; a < 512; a++ {
			s.Add(a) // shared half
		}
		for a := 512; a < n; a++ {
			if rng.Intn(4) == 0 {
				s.Add(a)
			}
		}
		interests[q] = s
		rates[q] = 0.9
	}
	bids := make([]float64, n)
	for i := range bids {
		bids[i] = rng.Float64()
	}
	for _, cfg := range []struct {
		name string
		opts sharedsort.Options
	}{
		{"shared", sharedsort.Options{}},
		{"independent", sharedsort.Options{DisableSharing: true}},
	} {
		p, err := sharedsort.Build(n, interests, rates, cfg.opts)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			pulls := 0
			for i := 0; i < b.N; i++ {
				p.BeginRound(bids)
				for q := range interests {
					s := p.Stream(q)
					for j := 0; j < 20; j++ {
						s.Next()
					}
				}
				pulls = p.RoundPulls()
			}
			b.ReportMetric(float64(pulls), "pulls/round")
			b.ReportMetric(p.ExpectedFullSortCost(), "fullSortE")
		})
	}
}

// BenchmarkThresholdAlgorithm measures TA's early termination: sorted
// accesses per top-k query on correlated vs independent attribute orders.
func BenchmarkThresholdAlgorithm(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n := 10000
	bids := make([]float64, n)
	quals := make([]float64, n)
	for i := 0; i < n; i++ {
		bids[i] = rng.Float64() * 10
		quals[i] = rng.Float64()
	}
	mkSource := func(val func(int) float64) *ta.SliceSource {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		// Selection-free sort by val desc.
		src := &ta.SliceSource{IDs: ids, Vals: make([]float64, n)}
		sortIdx(src.IDs, val)
		for i, id := range src.IDs {
			src.Vals[i] = val(id)
		}
		return src
	}
	byBid := mkSource(func(i int) float64 { return bids[i] })
	byQual := mkSource(func(i int) float64 { return quals[i] })
	score := func(i int) float64 { return bids[i] * quals[i] }
	b.ReportAllocs()
	b.ResetTimer()
	var accesses int
	for i := 0; i < b.N; i++ {
		bb, qq := *byBid, *byQual
		_, st := ta.TopK(10, &bb, &qq, score)
		accesses = st.SortedAccesses
	}
	b.ReportMetric(float64(accesses), "sortedAccesses")
	b.ReportMetric(float64(2*n), "fullScanAccesses")
}

// BenchmarkHoeffdingCompareVsExact regenerates Section IV-B: resolving a
// batch of throttled-bid comparisons (l = 18 outstanding ads each) by
// anytime bound refinement versus computing every bid exactly by O(2^l)
// enumeration. Typical pairs separate after a handful of refinements; only
// near-ties fall back to exact evaluation.
func BenchmarkHoeffdingCompareVsExact(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	const pairs = 20
	type side struct {
		bid, budgetLeft float64
		ads             []budget.OutstandingAd
	}
	mk := func() side {
		ads := make([]budget.OutstandingAd, 18)
		for i := range ads {
			ads[i] = budget.OutstandingAd{Price: 0.5 + rng.Float64()*4, CTR: rng.Float64()}
		}
		return side{bid: rng.Float64() * 4, budgetLeft: rng.Float64() * 30, ads: ads}
	}
	var left, right [pairs]side
	for i := 0; i < pairs; i++ {
		left[i], right[i] = mk(), mk()
	}
	b.Run("bounds", func(b *testing.B) {
		b.ReportAllocs()
		var refinements int
		for i := 0; i < b.N; i++ {
			refinements = 0
			for p := 0; p < pairs; p++ {
				x := budget.MustThrottler(0, left[p].bid, left[p].budgetLeft, 2, left[p].ads)
				y := budget.MustThrottler(1, right[p].bid, right[p].budgetLeft, 2, right[p].ads)
				_, st := budget.Compare(x, y)
				refinements += st.Refinements
			}
		}
		b.ReportMetric(float64(refinements)/pairs, "refinements/pair")
	})
	b.Run("exact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for p := 0; p < pairs; p++ {
				va := budget.ExactThrottledBid(left[p].bid, left[p].budgetLeft, 2, left[p].ads)
				vb := budget.ExactThrottledBid(right[p].bid, right[p].budgetLeft, 2, right[p].ads)
				_ = va < vb
			}
		}
	})
}

// BenchmarkTopKUncertain measures lazy top-k selection over uncertain
// throttled bids (Section IV-B + the multisimulation-style scheduling).
func BenchmarkTopKUncertain(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	build := func() []*budget.Throttler {
		ts := make([]*budget.Throttler, 50)
		for i := range ts {
			ads := make([]budget.OutstandingAd, 12)
			for j := range ads {
				ads[j] = budget.OutstandingAd{Price: 0.5 + rng.Float64()*3, CTR: rng.Float64()}
			}
			ts[i] = budget.MustThrottler(i, rng.Float64()*4, 5+rng.Float64()*15, 2, ads)
		}
		return ts
	}
	b.ReportAllocs()
	var refinements int
	for i := 0; i < b.N; i++ {
		res := budget.TopKUncertain(8, build())
		refinements = res.Refinements
	}
	b.ReportMetric(float64(refinements), "refinements")
}

// BenchmarkGamingScenario regenerates the Section-IV gaming numbers,
// reporting mean over-delivery per policy as the metric.
func BenchmarkGamingScenario(b *testing.B) {
	for _, policy := range []core.BudgetPolicy{core.Naive, core.Throttled} {
		b.Run(policy.String(), func(b *testing.B) {
			var over float64
			for i := 0; i < b.N; i++ {
				res, err := core.RunGamingExperiment(9, 40, 10, policy)
				if err != nil {
					b.Fatal(err)
				}
				over = res.OverDelivery()
			}
			b.ReportMetric(over, "overDelivery")
		})
	}
}

// BenchmarkNonSeparableWD is ablation A3: k²-pruned Hungarian matching vs
// exhaustive matching on non-separable CTR matrices.
func BenchmarkNonSeparableWD(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	n, k := 600, 8
	bids := make([]float64, n)
	ctr := make([][]float64, n)
	for i := range ctr {
		bids[i] = rng.Float64() * 10
		ctr[i] = make([]float64, k)
		for j := range ctr[i] {
			if rng.Intn(4) != 0 {
				ctr[i][j] = rng.Float64() * 0.5
			}
		}
	}
	b.Run("pruned", func(b *testing.B) {
		b.ReportAllocs()
		var cands int
		for i := 0; i < b.N; i++ {
			cands = nonsep.Solve(bids, ctr).Candidates
		}
		b.ReportMetric(float64(cands), "candidates")
	})
	b.Run("exhaustive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			nonsep.SolveExhaustive(bids, ctr)
		}
	})
}

// BenchmarkWinnerDeterminationSeparable measures the paper's baseline: the
// linear-scan top-k winner determination for a single auction.
func BenchmarkWinnerDeterminationSeparable(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1000, 100000} {
		advertisers := make([]Advertiser, n)
		for i := range advertisers {
			advertisers[i] = Advertiser{ID: i, Bid: rng.Float64() * 10, Quality: 0.5 + rng.Float64()}
		}
		d := []float64{0.30, 0.22, 0.15, 0.11, 0.08, 0.05, 0.03, 0.02}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SolveSeparable(advertisers, d)
			}
		})
	}
}

// BenchmarkPerPhraseRound measures the Section III end-to-end round: the
// engine on a per-phrase-quality workload, where phase 3 is the shared
// merge-sort forest feeding the threshold algorithm for every occurring
// phrase. It reports TA sorted accesses per auction and merge pulls per
// round, under each budget policy.
//
// Every phrase occurs every round, so budgets drain as rounds go by. Each
// timed round is therefore one of the first perPhraseWindow rounds of a
// fresh engine, built outside the timer, and ns/op measures the same
// budget regime whatever b.N is.
func BenchmarkPerPhraseRound(b *testing.B) {
	const perPhraseWindow = 100
	for _, policy := range []core.BudgetPolicy{core.Naive, core.Throttled} {
		b.Run(policy.String(), func(b *testing.B) {
			wcfg := workload.DefaultConfig()
			wcfg.NumAdvertisers = 1000
			wcfg.NumPhrases = 24
			wcfg.PerPhraseQuality = true
			cfg := core.DefaultConfig()
			cfg.Policy = policy
			occ := make([]bool, wcfg.NumPhrases)
			for q := range occ {
				occ[q] = true
			}
			var eng *core.Engine
			var st core.Stats // of the engines already retired
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%perPhraseWindow == 0 {
					b.StopTimer()
					if eng != nil {
						st = st.Add(eng.Stats())
					}
					var err error
					if eng, err = core.New(workload.Generate(wcfg), cfg); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				eng.Step(occ)
			}
			b.StopTimer()
			if st = st.Add(eng.Stats()); st.AuctionsResolved > 0 {
				b.ReportMetric(float64(st.SortedAccesses)/float64(st.AuctionsResolved), "taAccesses/auction")
				b.ReportMetric(float64(st.MergePulls)/float64(st.Rounds), "mergePulls/round")
			}
		})
	}
}

// BenchmarkSortPlanBuild measures the offline shared merge-sort plan
// construction itself (fragment pre-merge + pairwise greedy).
func BenchmarkSortPlanBuild(b *testing.B) {
	for _, n := range []int{256, 1024} {
		wcfg := workload.DefaultConfig()
		wcfg.NumAdvertisers = n
		wcfg.NumPhrases = 24
		wcfg.PerPhraseQuality = true
		w := workload.Generate(wcfg)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sharedsort.Build(n, w.Interests, w.Rates, sharedsort.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnalyticsEvaluate measures the Section VII analytics service:
// one shared-plan pass answering every registered bidding-program query.
func BenchmarkAnalyticsEvaluate(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	const phrases = 64
	svc := analytics.New(phrases)
	for p := 0; p < 32; p++ {
		set := bitset.New(phrases)
		core20 := 20
		for q := 0; q < core20; q++ {
			set.Add(q)
		}
		for q := core20; q < phrases; q++ {
			if rng.Intn(4) == 0 {
				set.Add(q)
			}
		}
		if _, err := svc.Register(p, set); err != nil {
			b.Fatal(err)
		}
	}
	if err := svc.Build(); err != nil {
		b.Fatal(err)
	}
	shared, naive, _ := svc.PlanCost()
	stats := make([]analytics.PhraseStats, phrases)
	for q := range stats {
		stats[q] = analytics.PhraseStats{MaxBid: rng.Float64() * 5, SumBids: rng.Float64() * 40, Bids: 8, Searches: 50}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := svc.Evaluate(stats); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(shared), "sharedNodes")
	b.ReportMetric(float64(naive), "naiveNodes")
}

// BenchmarkTopKMerge measures the ⊕ primitive itself.
func BenchmarkTopKMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	mk := func() *topk.List {
		l := topk.New(10)
		for i := 0; i < 20; i++ {
			l.Push(topk.Entry{ID: rng.Intn(10000), Score: rng.Float64()})
		}
		return l
	}
	x, y := mk(), mk()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		topk.Merge(x, y)
	}
}

// sortIdx sorts ids descending by val, ties by ascending id.
func sortIdx(ids []int, val func(int) float64) {
	sort.Slice(ids, func(a, b int) bool {
		va, vb := val(ids[a]), val(ids[b])
		if va != vb {
			return va > vb
		}
		return ids[a] < ids[b]
	})
}
