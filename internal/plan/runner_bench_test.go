package plan_test

import (
	"fmt"
	"math"
	"testing"

	"sharedwd/internal/plan"
	"sharedwd/internal/sharedagg"
	"sharedwd/internal/workload"
)

// BenchmarkStoreMinLeaves is the sweep behind storeMinLeaves (DESIGN.md §8):
// sequential full runs of the shared plan on the benchmark's two 2000 × 64
// universes — occurrence sampled from the search rates, every bid moving
// between runs — with the storing threshold forced from 1 ("store whatever
// two instructions read") to ∞ ("store query outputs only"). ns/op is one
// Run; stored/op is how many instruction runs it kept in the slab.
//
//	go test -run '^$' -bench StoreMinLeaves -benchtime 20000x ./internal/plan
func BenchmarkStoreMinLeaves(b *testing.B) {
	universes := []struct {
		name string
		wcfg workload.Config
	}{
		{"low-overlap", workload.DefaultConfig()},
		{"high-overlap", workload.HighOverlapConfig()},
	}
	for _, u := range universes {
		wcfg := u.wcfg
		wcfg.NumAdvertisers, wcfg.NumPhrases, wcfg.NumTopics = 2000, 64, 8
		w := workload.Generate(wcfg)
		queries := make([]plan.Query, len(w.Interests))
		for q := range queries {
			queries[q] = plan.Query{Vars: w.Interests[q], Rate: w.Rates[q]}
		}
		inst, err := plan.NewInstance(len(w.Advertisers), queries)
		if err != nil {
			b.Fatal(err)
		}
		_, prog, err := sharedagg.BuildCompiled(inst)
		if err != nil {
			b.Fatal(err)
		}
		const rounds = 256
		occ := make([][]bool, rounds)
		scores := make([][]float64, rounds)
		for i := range occ {
			occ[i] = w.SampleRound()
			w.PerturbBids(0.05)
			scores[i] = make([]float64, len(w.Advertisers))
			for v, a := range w.Advertisers {
				scores[i][v] = a.Bid * a.Quality
			}
		}
		k := len(w.SlotFactors) + 1
		for _, minLeaves := range []int32{1, 4, 8, 16, 32, 64, 128, 512, math.MaxInt32} {
			name := fmt.Sprintf("%s/min=%d", u.name, minLeaves)
			if minLeaves == math.MaxInt32 {
				name = u.name + "/min=inf"
			}
			b.Run(name, func(b *testing.B) {
				r := plan.NewRunner(prog, k)
				r.SetStoreMinLeaves(minLeaves)
				stored := 0
				for i := 0; i < b.N; i++ {
					r.Run(scores[i%rounds], occ[i%rounds])
					if i < rounds {
						for ins := 0; ins < prog.NumInstr(); ins++ {
							if r.Held(ins) {
								stored++
							}
						}
					}
				}
				b.ReportMetric(float64(stored)/float64(min(b.N, rounds)), "stored/op")
			})
		}
	}
}
