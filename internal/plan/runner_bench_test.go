package plan_test

import (
	"fmt"
	"math"
	"testing"

	"sharedwd/internal/plan"
	"sharedwd/internal/sharedagg"
	"sharedwd/internal/workload"
)

// BenchmarkFuseBelow is the sweep behind fuseBelow (DESIGN.md §8): the
// shared plan of each of the benchmark's three universes — 2000 × 64 low
// overlap, 2000 × 64 high overlap and 400 × 24 — lowered at each fusion
// threshold, from 0 (fuse by parent count only) to ∞ (one instruction per
// query), with occurrence sampled from the search rates. The run rows time
// a full Run with every bid moving between runs; the incremental rows time
// RunIncremental with 1 % of advertisers re-bidding between runs, their
// leaves reported through Invalidate. ns/op is one run, instrs is the
// program's instruction count and span/op the ⊕ operations a run counts.
//
//	go test -run '^$' -bench FuseBelow -benchtime 20000x ./internal/plan
func BenchmarkFuseBelow(b *testing.B) {
	low := workload.DefaultConfig()
	low.NumAdvertisers, low.NumPhrases, low.NumTopics = 2000, 64, 8
	high := workload.HighOverlapConfig()
	high.NumAdvertisers, high.NumPhrases = 2000, 64
	universes := []struct {
		name string
		wcfg workload.Config
	}{
		{"low-overlap", low},
		{"high-overlap", high},
		{"400x24", workload.DefaultConfig()},
	}
	for _, u := range universes {
		w := workload.Generate(u.wcfg)
		queries := make([]plan.Query, len(w.Interests))
		for q := range queries {
			queries[q] = plan.Query{Vars: w.Interests[q], Rate: w.Rates[q]}
		}
		inst, err := plan.NewInstance(len(w.Advertisers), queries)
		if err != nil {
			b.Fatal(err)
		}
		p := sharedagg.Build(inst)
		n, k := len(w.Advertisers), len(w.SlotFactors)+1
		const rounds = 256
		occ := make([][]bool, rounds)
		churn := make([][]float64, rounds)  // every bid moving
		steady := make([][]float64, rounds) // 1 % re-bidding
		changed := make([][]int, rounds)    // leaves steady[i] changed from steady[i-1]
		scoresOf := func() []float64 {
			s := make([]float64, n)
			for v, a := range w.Advertisers {
				s[v] = a.Bid * a.Quality
			}
			return s
		}
		for i := range occ {
			occ[i] = w.SampleRound()
			w.PerturbBids(0.05)
			churn[i] = scoresOf()
		}
		rng := w.Rng()
		for i := range steady {
			for j := 0; j < n/100; j++ {
				a := &w.Advertisers[rng.Intn(n)]
				a.Bid = math.Min(w.Cfg.MaxBid, math.Max(w.Cfg.MinBid, a.Bid*(1+0.05*(rng.Float64()*2-1))))
			}
			steady[i] = scoresOf()
		}
		for i := range steady {
			prev := steady[(i+rounds-1)%rounds]
			for v, s := range steady[i] {
				if s != prev[v] {
					changed[i] = append(changed[i], v)
				}
			}
		}
		for _, fuse := range []int{0, 8, 16, 32, 64, 128, 256, math.MaxInt} {
			name := fmt.Sprintf("%s/fuse=%d", u.name, fuse)
			if fuse == math.MaxInt {
				name = u.name + "/fuse=inf"
			}
			prog := plan.CompileFuseBelow(p, fuse)
			b.Run(name+"/run", func(b *testing.B) {
				r := plan.NewRunner(prog, k)
				span := 0
				for i := 0; i < b.N; i++ {
					span += r.Run(churn[i%rounds], occ[i%rounds])
				}
				b.ReportMetric(float64(prog.NumInstr()), "instrs")
				b.ReportMetric(float64(span)/float64(b.N), "span/op")
			})
			b.Run(name+"/incremental", func(b *testing.B) {
				r := plan.NewRunner(prog, k)
				span := 0
				for i := 0; i < b.N; i++ {
					for _, v := range changed[i%rounds] {
						r.Invalidate(v)
					}
					rec, cached := r.RunIncremental(steady[i%rounds], occ[i%rounds])
					span += rec + cached
				}
				b.ReportMetric(float64(prog.NumInstr()), "instrs")
				b.ReportMetric(float64(span)/float64(b.N), "span/op")
			})
		}
	}
}
