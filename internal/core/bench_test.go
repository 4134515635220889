package core

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"sharedwd/internal/workload"
)

// BenchmarkStepChurn splits the benchmark's rounds-churn round: the same
// 2000 × 64 × 8 low-overlap universe, Naive, budgets no run exhausts, and
// every bid moved by PerturbBids(0.05) before each round,
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
