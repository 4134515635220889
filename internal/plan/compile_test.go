package plan_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sharedwd/internal/bitset"
	"sharedwd/internal/plan"
	"sharedwd/internal/sharedagg"
	"sharedwd/internal/topk"
)

// overlapPlan computes every query as the merge of two chains over
// overlapping stretches of its variables: children with leaves in common, a
// shape the heuristics rarely emit and the compiler has to de-duplicate.
func overlapPlan(inst *plan.Instance) *plan.Plan {
	p := plan.NewPlan(inst)
	for qi, q := range inst.Queries {
		if p.QueryNode[qi] != -1 {
			continue
		}
		ids := q.Vars.Indices()
		if cut := len(ids) / 3; cut > 0 {
			p.AddAggregate(p.Chain(ids[:len(ids)-cut]), p.Chain(ids[cut:]))
		} else {
			p.Chain(ids)
		}
	}
	return p
}

// randomPlans yields validated shared, naive and overlapping-children plans
// over random overlap instances (a single-variable query appended, so leaf
// queries are covered).
func randomPlans(t *testing.T, seed int64) (*plan.Instance, []*plan.Plan) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	inst := plan.RandomOverlapInstance(rng, 40, 12, 4, 0.3, 0.9)
	queries := append(inst.Queries[:len(inst.Queries):len(inst.Queries)],
		plan.Query{Vars: bitset.FromIndices(inst.NumVars, rng.Intn(inst.NumVars)), Rate: 0.5})
	inst = plan.MustInstance(inst.NumVars, queries)
	plans := []*plan.Plan{sharedagg.Build(inst), plan.NaivePlan(inst), overlapPlan(inst)}
	for _, p := range plans {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	return inst, plans
}

// TestCompileInvariants pins the structural contract of Compile on random
// plans: Σ Span equals the plan's internal node count (TotalCost), every
// instruction's leaf and dep lists are duplicate-free and together are
// exactly the leaves and materialized nodes its fused subtree reaches, every
// dep precedes its consumer at a strictly lower level, the kind
// discrimination matches the input shape, and QuerySlot resolves every query
// to the instruction (or leaf slot) computing its node.
func TestCompileInvariants(t *testing.T) {
	deduped := false // some instruction reached one input along two paths
	for seed := int64(1); seed <= 8; seed++ {
		inst, plans := randomPlans(t, seed)
		for _, p := range plans {
			pr := plan.Compile(p)
			if pr.NumVars != inst.NumVars || pr.NumNodes != len(p.Nodes) {
				t.Fatalf("seed %d: program dims %d/%d, plan %d/%d",
					seed, pr.NumVars, pr.NumNodes, inst.NumVars, len(p.Nodes))
			}
			instrOf := make(map[int32]int32)
			spanSum := 0
			for ins := 0; ins < pr.NumInstr(); ins++ {
				if _, dup := instrOf[pr.Out[ins]]; dup || pr.Out[ins] < int32(pr.NumVars) {
					t.Fatalf("seed %d ins %d: output node %d repeated or a leaf", seed, ins, pr.Out[ins])
				}
				instrOf[pr.Out[ins]] = int32(ins)
				spanSum += int(pr.Span[ins])
			}
			if spanSum != p.TotalCost() || spanSum != pr.NumNodes-pr.NumVars {
				t.Fatalf("seed %d: Σ span %d, plan TotalCost %d, internal nodes %d",
					seed, spanSum, p.TotalCost(), pr.NumNodes-pr.NumVars)
			}

			for ins := 0; ins < pr.NumInstr(); ins++ {
				if ins > 0 && pr.Level[ins] < pr.Level[ins-1] {
					t.Fatalf("seed %d: level order broken at %d", seed, ins)
				}
				// Walk the fused subtree under Out: nodes no instruction
				// outputs are absorbed, everything else is an input.
				wantLeaves, wantDeps := map[int32]bool{}, map[int32]bool{}
				span, visits := 0, 0
				var walk func(c int)
				walk = func(c int) {
					visits++
					if c < pr.NumVars {
						wantLeaves[int32(c)] = true
					} else if dep, ok := instrOf[int32(c)]; ok {
						wantDeps[dep] = true
					} else {
						span++
						walk(p.Nodes[c].Left)
						walk(p.Nodes[c].Right)
					}
				}
				out := p.Nodes[pr.Out[ins]]
				walk(out.Left)
				walk(out.Right)
				deduped = deduped || visits > span+len(wantLeaves)+len(wantDeps)
				if span+1 != int(pr.Span[ins]) {
					t.Fatalf("seed %d ins %d: span %d, fused subtree has %d nodes", seed, ins, pr.Span[ins], span+1)
				}
				leaves := pr.Leaves[pr.LeafStart[ins]:pr.LeafStart[ins+1]]
				deps := pr.Deps[pr.DepStart[ins]:pr.DepStart[ins+1]]
				if len(leaves) != len(wantLeaves) || len(deps) != len(wantDeps) {
					t.Fatalf("seed %d ins %d: %d leaves / %d deps, subtree reaches %d / %d distinct",
						seed, ins, len(leaves), len(deps), len(wantLeaves), len(wantDeps))
				}
				for _, v := range leaves {
					if !wantLeaves[v] {
						t.Fatalf("seed %d ins %d: spurious or repeated leaf %d", seed, ins, v)
					}
					delete(wantLeaves, v)
				}
				for _, d := range deps {
					if !wantDeps[d] {
						t.Fatalf("seed %d ins %d: spurious or repeated dep %d", seed, ins, d)
					}
					delete(wantDeps, d)
					if d >= int32(ins) || pr.Level[d] >= pr.Level[ins] {
						t.Fatalf("seed %d ins %d (level %d): dep %d (level %d) does not precede it",
							seed, ins, pr.Level[ins], d, pr.Level[d])
					}
				}
				wantMerge2 := len(leaves) == 0 && len(deps) == 2
				if (pr.Kind[ins] == plan.OpMerge2) != wantMerge2 {
					t.Fatalf("seed %d ins %d: kind %v for %d leaves, %d deps",
						seed, ins, pr.Kind[ins], len(leaves), len(deps))
				}
			}

			leafSlots := map[int32]int32{}
			for qi, id := range p.QueryNode {
				slot := pr.QuerySlot[qi]
				if pr.QueryNode[qi] != int32(id) {
					t.Fatalf("seed %d query %d: QueryNode %d, plan %d", seed, qi, pr.QueryNode[qi], id)
				}
				if id >= pr.NumVars {
					if slot != instrOf[int32(id)] {
						t.Fatalf("seed %d query %d: slot %d, node %d is instruction %d", seed, qi, slot, id, instrOf[int32(id)])
					}
					continue
				}
				j := int(slot) - pr.NumInstr()
				if j < 0 || j >= len(pr.LeafQueries) || pr.LeafQueries[j] != int32(id) {
					t.Fatalf("seed %d query %d: leaf %d resolved to slot %d", seed, qi, id, slot)
				}
				if prev, ok := leafSlots[int32(id)]; ok && prev != slot {
					t.Fatalf("seed %d: leaf %d has slots %d and %d", seed, id, prev, slot)
				}
				leafSlots[int32(id)] = slot
			}
			if len(leafSlots) != len(pr.LeafQueries) || len(leafSlots) == 0 {
				t.Fatalf("seed %d: %d leaf-query slots for %d distinct leaf queries", seed, len(pr.LeafQueries), len(leafSlots))
			}
		}
	}
	if !deduped {
		t.Fatal("no plan reached an input along two paths: de-duplication was not exercised")
	}
}

// TestRunnerMatchesExecute is the compiled-path equivalence property: over
// random plans and rounds of changing leaf scores and occurrence vectors,
// the flat runner — full and incremental — must reproduce the
// memo-based Execute's query results entry for entry, and its work counters
// must tie out against the memo materialization count.
func TestRunnerMatchesExecute(t *testing.T) {
	const k = 5
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed * 31))
		inst, plans := randomPlans(t, seed)
		for _, p := range plans {
			pr := plan.Compile(p)
			scores := make([]float64, inst.NumVars)
			for v := range scores {
				if rng.Intn(4) > 0 {
					scores[v] = 1 + rng.Float64()*9
				}
			}
			memoLeaf := func(v int) *topk.List {
				l := topk.New(k)
				if s := scores[v]; s > 0 {
					l.Push(topk.Entry{ID: v, Score: s})
				}
				return l
			}

			full := plan.NewRunner(pr, k)
			incr := plan.NewRunner(pr, k)

			for round := 0; round < 30; round++ {
				// Sparse score churn, reported to the incremental runner.
				for i := rng.Intn(6); i > 0; i-- {
					v := rng.Intn(inst.NumVars)
					if rng.Intn(5) == 0 {
						scores[v] = 0 // advertiser drops out entirely
					} else {
						scores[v] = 1 + rng.Float64()*9
					}
					incr.Invalidate(v)
				}
				occ := make([]bool, len(inst.Queries))
				for q := range occ {
					occ[q] = rng.Intn(3) > 0
				}
				if round%7 == 0 {
					occ = nil // the "all occur" convention
				}

				want, wantMat := plan.Execute(p, memoLeaf, topk.Merge, occ)

				check := func(name string, r *plan.Runner, recomputed, cached int, expectCache bool) {
					t.Helper()
					if recomputed+cached != wantMat {
						t.Fatalf("seed %d %s round %d: recomputed %d + cached %d != memo materialized %d",
							seed, name, round, recomputed, cached, wantMat)
					}
					if !expectCache && cached != 0 {
						t.Fatalf("%s: full runner reported %d cached nodes", name, cached)
					}
					for qi, l := range want {
						if occ != nil && !occ[qi] {
							continue
						}
						run := r.QueryRun(qi)
						if len(run) != l.Len() {
							t.Fatalf("seed %d %s round %d: query %d has %d entries, want %v",
								seed, name, round, qi, len(run), l)
						}
						for i, e := range run {
							if l.At(i) != e {
								t.Fatalf("seed %d %s round %d: query %d entry %d = %+v, want %+v",
									seed, name, round, qi, i, e, l.At(i))
							}
						}
					}
				}
				check("full", full, full.Run(scores, occ), 0, false)
				r, c := incr.RunIncremental(scores, occ)
				check("incremental", incr, r, c, true)
			}
		}
	}
}

// TestRunnerIncrementalSteadyState pins dirty-cone caching on the compiled
// layout: unchanged scores and occurrence serve the whole
// cone from cache, a single dirty leaf recomputes only part of it, and
// InvalidateAll forces a full recompute.
func TestRunnerIncrementalSteadyState(t *testing.T) {
	const k = 5
	rng := rand.New(rand.NewSource(42))
	inst := plan.RandomOverlapInstance(rng, 30, 8, 3, 0.5, 0.9)
	p := sharedagg.Build(inst)
	pr := plan.Compile(p)
	scores := make([]float64, inst.NumVars)
	for v := range scores {
		scores[v] = 1 + rng.Float64()*9
	}
	r := plan.NewRunner(pr, k)
	occ := make([]bool, len(inst.Queries))
	for q := range occ {
		occ[q] = q%2 == 0
	}
	r1, c1 := r.RunIncremental(scores, occ)
	if r1 == 0 || c1 != 0 {
		t.Fatalf("first round: recomputed %d, cached %d", r1, c1)
	}
	r2, c2 := r.RunIncremental(scores, occ)
	if r2 != 0 || c2 != r1 {
		t.Fatalf("steady round: recomputed %d, cached %d (want 0, %d)", r2, c2, r1)
	}
	var dirty int
	for q := range occ {
		if occ[q] {
			dirty = inst.Queries[q].Vars.Indices()[0]
			break
		}
	}
	scores[dirty] *= 2
	r.Invalidate(dirty)
	r3, c3 := r.RunIncremental(scores, occ)
	if r3 == 0 || r3+c3 != r1 {
		t.Fatalf("dirty round: recomputed %d, cached %d (cone %d)", r3, c3, r1)
	}
	if r3 >= r1 {
		t.Fatalf("one dirty leaf recomputed the whole cone (%d of %d)", r3, r1)
	}
	r.InvalidateAll()
	r4, _ := r.RunIncremental(scores, occ)
	if r4 != r1 {
		t.Fatalf("after InvalidateAll recomputed %d, want %d", r4, r1)
	}
}

// TestRunnerValueReuse: every round's results land in the slots the runner
// allocated at construction — a query's run views the same slab segment
// round after round, full or incremental, whatever the scores and occurrence
// vector — so steady-state rounds hold no per-round values to allocate.
func TestRunnerValueReuse(t *testing.T) {
	const k = 5
	rng := rand.New(rand.NewSource(7))
	inst, plans := randomPlans(t, 7)
	for _, p := range plans {
		pr := plan.Compile(p)
		full, incr := plan.NewRunner(pr, k), plan.NewRunner(pr, k)
		entries := full.SlabEntries()
		var slots [2][]*topk.Entry // each runner's first-round segment per query
		for round := 0; round < 10; round++ {
			scores := randomScores(rng, inst.NumVars)
			occ := randomOcc(rng, len(inst.Queries))
			full.Run(scores, occ)
			incr.InvalidateAll()
			incr.RunIncremental(scores, occ)
			for ri, r := range []*plan.Runner{full, incr} {
				if slots[ri] == nil {
					slots[ri] = make([]*topk.Entry, len(inst.Queries))
				}
				for qi := range inst.Queries {
					run := r.QueryRun(qi)
					if (occ != nil && !occ[qi]) || len(run) == 0 {
						continue
					}
					if slots[ri][qi] == nil {
						slots[ri][qi] = &run[0]
					} else if slots[ri][qi] != &run[0] {
						t.Fatalf("round %d: query %d's run moved to a new segment", round, qi)
					}
				}
			}
			if full.SlabEntries() != entries || incr.SlabEntries() != entries {
				t.Fatalf("round %d: slab grew from %d entries", round, entries)
			}
		}
	}
}

// randomScores draws a leaf score slab with about a quarter of the leaves
// out of the running.
func randomScores(rng *rand.Rand, n int) []float64 {
	scores := make([]float64, n)
	for v := range scores {
		if rng.Intn(4) > 0 {
			scores[v] = 1 + rng.Float64()*9
		}
	}
	return scores
}

// randomOcc draws an occurrence vector; every fifth one is the nil "all
// occur" convention.
func randomOcc(rng *rand.Rand, n int) []bool {
	if rng.Intn(5) == 0 {
		return nil
	}
	occ := make([]bool, n)
	for q := range occ {
		occ[q] = rng.Intn(3) > 0
	}
	return occ
}

// sameQueryRuns fails unless got holds, for every occurring query, exactly
// the run want holds.
func sameQueryRuns(t *testing.T, label string, occ []bool, got, want *plan.Runner) {
	t.Helper()
	for qi := range got.Program().QuerySlot {
		if occ != nil && !occ[qi] {
			continue
		}
		g, w := got.QueryRun(qi), want.QueryRun(qi)
		if len(g) != len(w) {
			t.Fatalf("%s: query %d has %d entries, want %v", label, qi, len(g), w)
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%s: query %d entry %d = %+v, want %+v", label, qi, i, g[i], w[i])
			}
		}
	}
}

// TestRunnerStreamedMatchesStored holds demand-driven storing to the
// store-everything semantics: a sequential Run — at the production
// threshold, at 1 (store whatever two instructions read) and at ∞ (store
// query outputs only) — must give the query runs and the Materialized count
// of a pass that stores every instruction (InvalidateAll + RunIncremental)
// and of memo Execute, on random plans, scores and occurrence vectors. It
// also checks the thresholds do what they say: ∞ holds nothing but occurring
// query outputs, and 1 holds strictly more than that somewhere.
func TestRunnerStreamedMatchesStored(t *testing.T) {
	const k = 5
	streamed, sharedHeld := 0, 0
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed * 77))
		inst, plans := randomPlans(t, seed)
		for pi, p := range plans {
			pr := plan.Compile(p)
			isOutput := make([]bool, pr.NumInstr())
			stored := plan.NewRunner(pr, k)
			runners := map[string]*plan.Runner{
				"default": plan.NewRunner(pr, k),
				"min=1":   plan.NewRunner(pr, k),
				"min=inf": plan.NewRunner(pr, k),
			}
			runners["min=1"].SetStoreMinLeaves(1)
			runners["min=inf"].SetStoreMinLeaves(math.MaxInt32)
			for round := 0; round < 20; round++ {
				scores := randomScores(rng, inst.NumVars)
				occ := randomOcc(rng, len(inst.Queries))
				memoLeaf := func(v int) *topk.List {
					l := topk.New(k)
					if s := scores[v]; s > 0 {
						l.Push(topk.Entry{ID: v, Score: s})
					}
					return l
				}
				want, wantMat := plan.Execute(p, memoLeaf, topk.Merge, occ)
				stored.InvalidateAll()
				if rec, cached := stored.RunIncremental(scores, occ); rec != wantMat || cached != 0 {
					t.Fatalf("seed %d plan %d round %d: store-everything pass recomputed %d, cached %d, memo %d",
						seed, pi, round, rec, cached, wantMat)
				}
				for qi, l := range want {
					if occ != nil && !occ[qi] {
						continue
					}
					if run := stored.QueryRun(qi); !slices.Equal(run, l.Entries()) {
						t.Fatalf("seed %d plan %d round %d: stored query %d = %v, memo %v", seed, pi, round, qi, run, l)
					}
				}
				clear(isOutput)
				for qi, slot := range pr.QuerySlot {
					if int(slot) < pr.NumInstr() && (occ == nil || occ[qi]) {
						isOutput[slot] = true
					}
				}
				for name, r := range runners {
					label := fmt.Sprintf("seed %d plan %d round %d %s", seed, pi, round, name)
					if mat := r.Run(scores, occ); mat != wantMat {
						t.Fatalf("%s: materialized %d, memo %d", label, mat, wantMat)
					}
					sameQueryRuns(t, label, occ, r, stored)
					for ins := 0; ins < pr.NumInstr(); ins++ {
						switch held := r.Held(ins); {
						case isOutput[ins] && !held:
							t.Fatalf("%s: occurring query output %d not stored", label, ins)
						case held && !isOutput[ins] && name == "min=inf":
							t.Fatalf("%s: instruction %d stored with the threshold at ∞", label, ins)
						case held && !isOutput[ins] && name == "min=1":
							sharedHeld++
						case !held && stored.Held(ins):
							streamed++
						}
					}
				}
			}
		}
	}
	if streamed == 0 || sharedHeld == 0 {
		t.Fatalf("streamed %d instruction runs, stored %d shared ones at threshold 1: both must occur", streamed, sharedHeld)
	}
}

// TestRunnerStreamedNeverCached interleaves Run, Invalidate and
// RunIncremental on one runner. A Run streams most instructions — their
// slab segments keep whatever an earlier round left there — so nothing a Run
// did may make RunIncremental trust a segment: a fresh runner's Run leaves
// no cache behind, and after any interleaving, with every score change
// reported through Invalidate, either call gives what a fresh runner's Run
// gives (which TestRunnerMatchesExecute ties to memo Execute).
func TestRunnerStreamedNeverCached(t *testing.T) {
	const k = 5
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed * 131))
		inst, plans := randomPlans(t, seed)
		for pi, p := range plans {
			pr := plan.Compile(p)
			scores := randomScores(rng, inst.NumVars)
			r := plan.NewRunner(pr, k)
			ref := plan.NewRunner(pr, k)

			mat := r.Run(scores, nil)
			if rec, cached := r.RunIncremental(scores, nil); cached != 0 || rec != mat {
				t.Fatalf("seed %d plan %d: after a Run, RunIncremental recomputed %d and served %d from cache (cone %d)",
					seed, pi, rec, cached, mat)
			}
			for round := 0; round < 60; round++ {
				for i := rng.Intn(4); i > 0; i-- {
					v := rng.Intn(inst.NumVars)
					scores[v] = float64(rng.Intn(3)) * (1 + rng.Float64()*9)
					r.Invalidate(v)
				}
				occ := randomOcc(rng, len(inst.Queries))
				label := fmt.Sprintf("seed %d plan %d round %d", seed, pi, round)
				wantMat := ref.Run(scores, occ)
				if rng.Intn(2) == 0 {
					if got := r.Run(scores, occ); got != wantMat {
						t.Fatalf("%s: Run materialized %d, want %d", label, got, wantMat)
					}
				} else if rec, cached := r.RunIncremental(scores, occ); rec+cached != wantMat {
					t.Fatalf("%s: recomputed %d + cached %d, want %d", label, rec, cached, wantMat)
				}
				sameQueryRuns(t, label, occ, r, ref)
			}
		}
	}
}

// TestRunnerSlabSize pins the runner's value slab at one run per instruction
// plus one per leaf query — not one per plan node.
func TestRunnerSlabSize(t *testing.T) {
	const k = 7
	_, plans := randomPlans(t, 3)
	for _, p := range plans {
		pr := plan.Compile(p)
		want := (pr.NumInstr() + len(pr.LeafQueries)) * k
		if got := plan.NewRunner(pr, k).SlabEntries(); got != want || want >= pr.NumNodes*k {
			t.Fatalf("slab holds %d entries, want (%d instructions + %d leaf queries)·%d = %d (per node: %d)",
				got, pr.NumInstr(), len(pr.LeafQueries), k, want, pr.NumNodes*k)
		}
	}
}
