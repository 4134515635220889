package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"sharedwd/internal/workload"
)

// BenchmarkExecutorRound compares the flat-compiled runner with the
// Independent baseline on the same workload BenchmarkRoundResolution uses
// (1000 advertisers, 32 phrases, half occurring each round, non-exhausting
// budgets so every round is identical).
func BenchmarkExecutorRound(b *testing.B) {
	variants := []struct {
		name        string
		independent bool
	}{
		{name: "compiled"},
		{name: "independent", independent: true},
	}
	for _, v := range variants {
		wcfg := workload.DefaultConfig()
		wcfg.NumAdvertisers = 1000
		wcfg.NumPhrases = 32
		wcfg.NumTopics = 6
		wcfg.MinBudget = 1e6 // never exhausts: every round costs the same
		wcfg.MaxBudget = 2e6
		w := workload.Generate(wcfg)
		cfg := DefaultConfig()
		cfg.Policy = Naive
		if v.independent {
			cfg.Sharing = Independent
		}
		eng, err := New(w, cfg)
		if err != nil {
			b.Fatal(err)
		}
		occ := make([]bool, wcfg.NumPhrases)
		for q := range occ {
			occ[q] = q%2 == 0
		}
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng.Step(occ)
			}
		})
	}
}

// BenchmarkCacheBreakEven is the hit-share sweep behind cacheBreakEven
// (DESIGN.md §5): on the benchmark's two 2000 × 64 universes it re-bids a
// fixed share of advertisers before every round and resolves the same
// rounds on a twin pair of engines — one held on the incremental path (the
// governor is reset before every Step, so it never leaves), one with the
// cache off, which is exactly what a fallback round runs. Each row reports
// both Steps' median in ns and the hit share the incremental engine saw; the
// break-even is the hit share where the two cross.
//
//	go test -run '^$' -bench CacheBreakEven -benchtime 2000x ./internal/core
func BenchmarkCacheBreakEven(b *testing.B) {
	universes := []struct {
		name string
		wcfg workload.Config
	}{
		{"low-overlap", workload.DefaultConfig()},
		{"high-overlap", workload.HighOverlapConfig()},
	}
	for _, u := range universes {
		for _, share := range []float64{0, 0.0001, 0.00025, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.05, 0.2, 1} {
			wcfg := u.wcfg
			wcfg.NumAdvertisers, wcfg.NumPhrases, wcfg.NumTopics = 2000, 64, 8
			wcfg.MinBudget, wcfg.MaxBudget = 1e6, 2e6 // never exhausts
			cfg := DefaultConfig()
			cfg.Policy = Naive
			var engs [2]*Engine // incremental, full
			var worlds [2]*workload.Workload
			for i := range engs {
				cfg.IncrementalCache = i == 0
				worlds[i] = workload.Generate(wcfg)
				eng, err := New(worlds[i], cfg)
				if err != nil {
					b.Fatal(err)
				}
				engs[i] = eng
			}
			n := len(worlds[0].Advertisers)
			rng := rand.New(rand.NewSource(7))
			occ := make([]bool, wcfg.NumPhrases)
			round := func() (ns [2]float64) {
				for q := range occ {
					occ[q] = rng.Float64() < worlds[0].Rates[q]
				}
				// share·n re-bids a round, the fraction as a coin flip; share
				// 1 moves every bid exactly once, smaller shares draw with
				// replacement as the benchmark's re-bid does.
				want := share * float64(n)
				rebids := int(want)
				if rng.Float64() < want-float64(rebids) {
					rebids++
				}
				for j := 0; j < rebids; j++ {
					i := j
					if rebids < n {
						i = rng.Intn(n)
					}
					f := 1 + 0.05*(rng.Float64()*2-1)
					for _, w := range worlds {
						a := &w.Advertisers[i]
						a.Bid = math.Min(w.Cfg.MaxBid, math.Max(w.Cfg.MinBid, a.Bid*f))
					}
				}
				engs[0].gov.reset()
				for i, eng := range engs {
					t0 := time.Now()
					eng.Step(occ)
					ns[i] = float64(time.Since(t0))
				}
				return ns
			}
			for i := 0; i < 200; i++ {
				round()
			}
			b.Run(fmt.Sprintf("%s/rebid=%g", u.name, share), func(b *testing.B) {
				var ns [2][]float64
				before := engs[0].Stats()
				for i := 0; i < b.N; i++ {
					r := round()
					ns[0] = append(ns[0], r[0])
					ns[1] = append(ns[1], r[1])
				}
				after := engs[0].Stats()
				cached := after.NodesCached - before.NodesCached
				total := cached + after.NodesMaterialized - before.NodesMaterialized
				sort.Float64s(ns[0])
				sort.Float64s(ns[1])
				b.ReportMetric(ns[0][b.N/2], "incremental-p50-ns")
				b.ReportMetric(ns[1][b.N/2], "full-p50-ns")
				b.ReportMetric(float64(cached)/float64(max(total, 1)), "hit-share")
				b.ReportMetric(0, "ns/op")
			})
		}
	}
}

// BenchmarkStepChurn splits the benchmark's rounds-churn round: the same
// 2000 × 64 × 8 low-overlap universe, Naive, budgets no run exhausts, the
// cache off, and every bid moved by PerturbBids(0.05) before each round,
// outside the timing. Rounds alternate between timing a whole Step and
// timing only its leaf-scoring phase (then stepping untimed), so each phase
// starts from the same state; the benchmark reports both medians.
//
//	go test -run '^$' -bench StepChurn -benchtime 5000x ./internal/core
func BenchmarkStepChurn(b *testing.B) {
	wcfg := workload.DefaultConfig()
	wcfg.NumAdvertisers, wcfg.NumPhrases, wcfg.NumTopics = 2000, 64, 8
	wcfg.MinBudget, wcfg.MaxBudget = 1e6, 2e6 // never exhausts
	w := workload.Generate(wcfg)
	cfg := DefaultConfig()
	cfg.Policy = Naive
	eng, err := New(w, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	occ := make([]bool, wcfg.NumPhrases)
	next := func() {
		w.PerturbBids(0.05)
		for q := range occ {
			occ[q] = rng.Float64() < w.Rates[q]
		}
	}
	for i := 0; i < 200; i++ {
		next()
		eng.Step(occ)
	}
	step := make([]float64, b.N)
	scoring := make([]float64, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next()
		t0 := time.Now()
		eng.Step(occ)
		step[i] = float64(time.Since(t0))

		next()
		t0 = time.Now()
		eng.scoreParticipants(occ)
		scoring[i] = float64(time.Since(t0))
		eng.Step(occ)
	}
	sort.Float64s(step)
	sort.Float64s(scoring)
	b.ReportMetric(step[b.N/2], "step-p50-ns")
	b.ReportMetric(scoring[b.N/2], "scoring-p50-ns")
	b.ReportMetric(0, "ns/op")
}
