package plan_test

import (
	"math/rand"
	"slices"
	"testing"

	"sharedwd/internal/bitset"
	"sharedwd/internal/plan"
	"sharedwd/internal/topk"
)

// draws turns fuzz input into choices: each call consumes one byte, and an
// exhausted input answers 0, so every input decodes to some instance.
type draws []byte

func (d *draws) intn(n int) int {
	if n <= 1 || len(*d) == 0 {
		return 0
	}
	v := int((*d)[0])
	*d = (*d)[1:]
	return v % n
}

// fuzzInstance draws up to 24 variables and up to 8 distinct non-empty
// queries over them.
func fuzzInstance(d *draws) (*plan.Instance, error) {
	numVars := 1 + d.intn(24)
	var queries []plan.Query
	for q := 1 + d.intn(8); q > 0; q-- {
		vars := bitset.New(numVars)
		for v := 0; v < numVars; v++ {
			if d.intn(3) == 0 {
				vars.Add(v)
			}
		}
		if vars.IsEmpty() {
			vars.Add(d.intn(numVars))
		}
		if !slices.ContainsFunc(queries, func(o plan.Query) bool { return o.Vars.Equal(vars) }) {
			queries = append(queries, plan.Query{Vars: vars, Rate: float64(1+d.intn(9)) / 10})
		}
	}
	return plan.NewInstance(numVars, queries)
}

// fuzzPlan completes a plan for inst by aggregating, for each unbound query,
// a drawn subset of the existing nodes its label contains plus leaves for
// the rest of its variables (and some it already has), merged in drawn
// order. Reusing nodes makes shared subtrees; the extra leaves make
// overlapping children.
func fuzzPlan(inst *plan.Instance, d *draws) *plan.Plan {
	p := plan.NewPlan(inst)
	for qi, q := range inst.Queries {
		if p.QueryNode[qi] != -1 {
			continue
		}
		covered := bitset.New(inst.NumVars)
		var parts []int
		for id := len(p.Nodes) - 1; id >= inst.NumVars; id-- {
			if p.Nodes[id].Vars.SubsetOf(q.Vars) && d.intn(2) == 0 {
				parts = append(parts, id)
				covered.UnionInPlace(p.Nodes[id].Vars)
			}
		}
		for _, v := range q.Vars.Indices() {
			if !covered.Contains(v) || d.intn(4) == 0 {
				parts = append(parts, v)
			}
		}
		for len(parts) > 1 {
			i := d.intn(len(parts))
			a := parts[i]
			parts = slices.Delete(parts, i, i+1)
			j := d.intn(len(parts))
			parts[j] = p.AddAggregate(a, parts[j])
		}
	}
	return p
}

// FuzzCompiledRun holds the compiled runner to memo Execute on arbitrary
// small instances. Each input draws an instance, a complete plan with shared
// and overlapping subtrees, a fusion threshold (production Compile among
// them), a run capacity, and rounds of leaf scores (ties, zeros and
// negatives included), occurrence vectors and Invalidate sets (every changed
// leaf plus some unchanged ones). Run and RunIncremental must give Execute's
// run for every occurring query, and RunIncremental's recomputed + cached
// must equal Run's count.
//
//	go test -run '^$' -fuzz FuzzCompiledRun -fuzztime 10s ./internal/plan
func FuzzCompiledRun(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		in := make([]byte, 64*seed)
		rand.New(rand.NewSource(seed)).Read(in)
		f.Add(in)
	}
	values := []float64{0, -1, 0.5, 1, 1, 2, 2, 3}
	f.Fuzz(func(t *testing.T, in []byte) {
		d := draws(in)
		inst, err := fuzzInstance(&d)
		if err != nil {
			t.Skip(err)
		}
		p := fuzzPlan(inst, &d)
		if err := p.Validate(); err != nil {
			t.Fatalf("generated plan: %v", err)
		}
		pr := plan.Compile(p)
		if fuse := d.intn(inst.NumVars + 3); fuse <= inst.NumVars+1 {
			pr = plan.CompileFuseBelow(p, fuse)
		}
		k := 1 + d.intn(4)
		full, incr := plan.NewRunner(pr, k), plan.NewRunner(pr, k)

		scores := make([]float64, inst.NumVars)
		for round := 1 + d.intn(6); round > 0; round-- {
			for v := range scores {
				if d.intn(3) == 0 {
					if s := values[d.intn(len(values))]; s != scores[v] {
						scores[v] = s
						incr.Invalidate(v)
					}
				} else if d.intn(8) == 0 {
					incr.Invalidate(v)
				}
			}
			var occ []bool
			if d.intn(5) > 0 {
				occ = make([]bool, len(inst.Queries))
				for q := range occ {
					occ[q] = d.intn(2) == 0
				}
			}
			want, _ := plan.Execute(p, func(v int) *topk.List {
				l := topk.New(k)
				if scores[v] > 0 {
					l.Push(topk.Entry{ID: v, Score: scores[v]})
				}
				return l
			}, topk.Merge, occ)

			count := full.Run(scores, occ)
			if rec, cached := incr.RunIncremental(scores, occ); rec+cached != count {
				t.Fatalf("RunIncremental recomputed %d + cached %d, Run counted %d", rec, cached, count)
			}
			for qi, l := range want {
				for _, r := range []*plan.Runner{full, incr} {
					if run := r.QueryRun(qi); !slices.Equal(run, l.Entries()) {
						t.Fatalf("query %d = %v, memo Execute %v (incremental: %v)", qi, run, l.Entries(), r == incr)
					}
				}
			}
		}
	})
}
