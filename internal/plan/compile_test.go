package plan_test

import (
	"fmt"
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

// randomPlans yields validated shared, naive, overlapping-children and
// randomly merged plans (fuzzPlan's, whose reused subtrees form diamonds)
// over random overlap instances (a single-variable query appended, so leaf
// queries are covered).
func randomPlans(t *testing.T, seed int64) (*plan.Instance, []*plan.Plan) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	inst := plan.RandomOverlapInstance(rng, 40, 12, 4, 0.3, 0.9)
	queries := append(inst.Queries[:len(inst.Queries):len(inst.Queries)],
		plan.Query{Vars: bitset.FromIndices(inst.NumVars, rng.Intn(inst.NumVars)), Rate: 0.5})
	inst = plan.MustInstance(inst.NumVars, queries)
	in := make(draws, 4096)
	rng.Read(in)
	plans := []*plan.Plan{sharedagg.Build(inst), plan.NaivePlan(inst), overlapPlan(inst), fuzzPlan(inst, &in)}
	for _, p := range plans {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	return inst, plans
}

// namedProgram is one lowering of a plan under test.
type namedProgram struct {
	name string
	fuse int // the fusion threshold it was lowered at
	pr   *plan.Program
}

// programs lowers p at the thresholds the tests cover: fusion by parent
// count alone (every shared node an instruction), a threshold that fuses
// some shared nodes of these small instances and keeps others, and
// production Compile, which fuses every non-query node below FuseBelow
// variables.
func programs(p *plan.Plan) []namedProgram {
	return []namedProgram{
		{"fuse=0", 0, plan.CompileFuseBelow(p, 0)},
		{"fuse=8", 8, plan.CompileFuseBelow(p, 8)},
		{"compile", plan.FuseBelow, plan.Compile(p)},
	}
}

// instrIndex maps each instruction's output node to the instruction.
func instrIndex(pr *plan.Program) map[int32]int32 {
	instrOf := make(map[int32]int32, pr.NumInstr())
	for ins, out := range pr.Out {
		instrOf[out] = int32(ins)
	}
	return instrOf
}

// fusedTree walks the plan below instruction ins's output node down to
// leaves and to other instructions' outputs: every internal node in between
// is fused into ins. It returns the ⊕ operations ins performs — its output
// plus each fused node once — the distinct leaves and deps it reaches, and
// the nodes it reached along more than one path.
func fusedTree(p *plan.Plan, instrOf map[int32]int32, out int32) (span int, leaves, deps map[int32]bool, twice []int) {
	leaves, deps = map[int32]bool{}, map[int32]bool{}
	seen := map[int]bool{}
	var walk func(c int)
	walk = func(c int) {
		if seen[c] {
			twice = append(twice, c)
			return
		}
		seen[c] = true
		if c < p.Inst.NumVars {
			leaves[int32(c)] = true
		} else if dep, ok := instrOf[int32(c)]; ok {
			deps[dep] = true
		} else {
			span++
			walk(p.Nodes[c].Left)
			walk(p.Nodes[c].Right)
		}
	}
	walk(p.Nodes[out].Left)
	walk(p.Nodes[out].Right)
	return span + 1, leaves, deps, twice
}

// cone marks a round's needed instructions on the test side: the occurring
// queries' instructions and, transitively, their deps.
func cone(pr *plan.Program, occ []bool) []bool {
	need := make([]bool, pr.NumInstr())
	var mark func(ins int32)
	mark = func(ins int32) {
		if need[ins] {
			return
		}
		need[ins] = true
		for _, d := range pr.Deps[pr.DepStart[ins]:pr.DepStart[ins+1]] {
			mark(d)
		}
	}
	for qi, slot := range pr.QuerySlot {
		if int(slot) < pr.NumInstr() && (occ == nil || occ[qi]) {
			mark(slot)
		}
	}
	return need
}

// coneSpan counts a round's ⊕ operations on the test side: the sizes of the
// fused trees of the round's cone.
func coneSpan(p *plan.Plan, pr *plan.Program, occ []bool) int {
	instrOf := instrIndex(pr)
	total := 0
	for ins, needed := range cone(pr, occ) {
		if needed {
			span, _, _, _ := fusedTree(p, instrOf, pr.Out[ins])
			total += span
		}
	}
	return total
}

// TestCompileInvariants pins the structural contract of the lowering on
// random plans, at every threshold programs covers: an instruction's Span is
// its output plus the fused nodes under it, each counted once; its leaf and
// dep lists are duplicate-free and are exactly the leaves and materialized
// nodes its fused tree reaches; every dep precedes its consumer at a
// strictly lower level; the kind discrimination matches the input shape;
// QuerySlot resolves every query to the instruction (or leaf slot) computing
// its node; and the instructions are exactly the internal nodes the fusion
// rule keeps — query outputs, and nodes with other than one parent whose
// label has at least the threshold's variables. Fused by parent count alone,
// Σ Span equals the plan's internal node count (TotalCost).
func TestCompileInvariants(t *testing.T) {
	deduped := false     // some instruction reached one input along two paths
	fusedTwice := false  // ... or one fused node, which it must expand once
	sharedFused := false // some node with two parents was fused
	for seed := int64(1); seed <= 8; seed++ {
		inst, plans := randomPlans(t, seed)
		for _, p := range plans {
			parents := make([]int, len(p.Nodes))
			for _, nd := range p.Nodes[inst.NumVars:] {
				parents[nd.Left]++
				parents[nd.Right]++
			}
			isQuery := map[int32]bool{}
			for _, id := range p.QueryNode {
				isQuery[int32(id)] = true
			}
			for _, np := range programs(p) {
				pr, fuse := np.pr, np.fuse
				if pr.NumVars != inst.NumVars || pr.NumNodes != len(p.Nodes) {
					t.Fatalf("seed %d %s: program dims %d/%d, plan %d/%d",
						seed, np.name, pr.NumVars, pr.NumNodes, inst.NumVars, len(p.Nodes))
				}
				instrOf := instrIndex(pr)
				kept := 0
				for id := inst.NumVars; id < len(p.Nodes); id++ {
					if !isQuery[int32(id)] && (parents[id] == 1 || p.Nodes[id].Vars.Count() < fuse) {
						sharedFused = sharedFused || parents[id] >= 2
						continue
					}
					kept++
					if _, ok := instrOf[int32(id)]; !ok {
						t.Fatalf("seed %d %s: node %d (%d parents, %d vars) has no instruction",
							seed, np.name, id, parents[id], p.Nodes[id].Vars.Count())
					}
				}
				if len(instrOf) != pr.NumInstr() || kept != pr.NumInstr() {
					t.Fatalf("seed %d %s: %d instructions (%d distinct outputs), fusion rule keeps %d nodes",
						seed, np.name, pr.NumInstr(), len(instrOf), kept)
				}
				spanSum := 0
				for ins := 0; ins < pr.NumInstr(); ins++ {
					if pr.Out[ins] < int32(pr.NumVars) {
						t.Fatalf("seed %d %s ins %d: output node %d is a leaf", seed, np.name, ins, pr.Out[ins])
					}
					spanSum += int(pr.Span[ins])
				}
				if fuse == 0 && (spanSum != p.TotalCost() || spanSum != pr.NumNodes-pr.NumVars) {
					t.Fatalf("seed %d: Σ span %d, plan TotalCost %d, internal nodes %d",
						seed, spanSum, p.TotalCost(), pr.NumNodes-pr.NumVars)
				}

				for ins := 0; ins < pr.NumInstr(); ins++ {
					if ins > 0 && pr.Level[ins] < pr.Level[ins-1] {
						t.Fatalf("seed %d %s: level order broken at %d", seed, np.name, ins)
					}
					span, wantLeaves, wantDeps, twice := fusedTree(p, instrOf, pr.Out[ins])
					for _, c := range twice {
						_, materialized := instrOf[int32(c)]
						deduped = true
						fusedTwice = fusedTwice || (c >= pr.NumVars && !materialized)
					}
					if span != int(pr.Span[ins]) {
						t.Fatalf("seed %d %s ins %d: span %d, fused tree has %d nodes", seed, np.name, ins, pr.Span[ins], span)
					}
					leaves := pr.Leaves[pr.LeafStart[ins]:pr.LeafStart[ins+1]]
					deps := pr.Deps[pr.DepStart[ins]:pr.DepStart[ins+1]]
					if len(leaves) != len(wantLeaves) || len(deps) != len(wantDeps) {
						t.Fatalf("seed %d %s ins %d: %d leaves / %d deps, fused tree reaches %d / %d distinct",
							seed, np.name, ins, len(leaves), len(deps), len(wantLeaves), len(wantDeps))
					}
					for _, v := range leaves {
						if !wantLeaves[v] {
							t.Fatalf("seed %d %s ins %d: spurious or repeated leaf %d", seed, np.name, ins, v)
						}
						delete(wantLeaves, v)
					}
					for _, d := range deps {
						if !wantDeps[d] {
							t.Fatalf("seed %d %s ins %d: spurious or repeated dep %d", seed, np.name, ins, d)
						}
						delete(wantDeps, d)
						if d >= int32(ins) || pr.Level[d] >= pr.Level[ins] {
							t.Fatalf("seed %d %s ins %d (level %d): dep %d (level %d) does not precede it",
								seed, np.name, ins, pr.Level[ins], d, pr.Level[d])
						}
					}
					wantMerge2 := len(leaves) == 0 && len(deps) == 2
					if (pr.Kind[ins] == plan.OpMerge2) != wantMerge2 {
						t.Fatalf("seed %d %s ins %d: kind %v for %d leaves, %d deps",
							seed, np.name, ins, pr.Kind[ins], len(leaves), len(deps))
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
	}
	if !deduped || !fusedTwice || !sharedFused {
		t.Fatalf("reached an input along two paths: %v, a fused node: %v; fused a shared node: %v — all must be exercised",
			deduped, fusedTwice, sharedFused)
	}
}

// TestRunnerMatchesExecute is the compiled-path equivalence property: over
// random plans, every lowering programs covers, and rounds of changing leaf
// scores and occurrence vectors, the flat runner — full and incremental —
// must reproduce the memo-based Execute's query results entry for entry.
// Its work counters must tie out against the test-side count of the cone's
// fused trees and, fused by parent count alone, against the memo
// materialization count.
func TestRunnerMatchesExecute(t *testing.T) {
	const k = 5
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed * 31))
		inst, plans := randomPlans(t, seed)
		for _, p := range plans {
			for _, np := range programs(p) {
				pr := np.pr
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
					wantSpan := coneSpan(p, pr, occ)
					if np.fuse == 0 && wantSpan != wantMat {
						t.Fatalf("seed %d round %d: cone fused trees hold %d nodes, memo materialized %d", seed, round, wantSpan, wantMat)
					}

					check := func(name string, r *plan.Runner, recomputed, cached int, expectCache bool) {
						t.Helper()
						if recomputed+cached != wantSpan {
							t.Fatalf("seed %d %s %s round %d: recomputed %d + cached %d != cone span %d",
								seed, np.name, name, round, recomputed, cached, wantSpan)
						}
						if !expectCache && cached != 0 {
							t.Fatalf("%s: full runner reported %d cached nodes", name, cached)
						}
						for qi, l := range want {
							if occ != nil && !occ[qi] {
								continue
							}
							if run := r.QueryRun(qi); !slices.Equal(run, l.Entries()) {
								t.Fatalf("seed %d %s %s round %d: query %d = %v, want %v",
									seed, np.name, name, round, qi, run, l)
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
// store-everything semantics: on every lowering programs covers, a
// sequential Run must give the query runs and the count of a pass that
// stores every instruction (InvalidateAll + RunIncremental), and that pass
// must give memo Execute's runs, on random plans, scores and occurrence
// vectors. It also checks the storing rule itself against a test-side count
// of each needed instruction's needed readers: Run holds an instruction iff
// it is an occurring query's output or two or more needed instructions read
// it, and both held shared runs and streamed runs occur.
func TestRunnerStreamedMatchesStored(t *testing.T) {
	const k = 5
	streamed, sharedHeld := 0, 0
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed * 77))
		inst, plans := randomPlans(t, seed)
		for pi, p := range plans {
			for _, np := range programs(p) {
				pr := np.pr
				isOutput := make([]bool, pr.NumInstr())
				readers := make([]int, pr.NumInstr())
				stored, r := plan.NewRunner(pr, k), plan.NewRunner(pr, k)
				for round := 0; round < 20; round++ {
					label := fmt.Sprintf("seed %d plan %d %s round %d", seed, pi, np.name, round)
					scores := randomScores(rng, inst.NumVars)
					occ := randomOcc(rng, len(inst.Queries))
					memoLeaf := func(v int) *topk.List {
						l := topk.New(k)
						if s := scores[v]; s > 0 {
							l.Push(topk.Entry{ID: v, Score: s})
						}
						return l
					}
					want, _ := plan.Execute(p, memoLeaf, topk.Merge, occ)
					stored.InvalidateAll()
					rec, cached := stored.RunIncremental(scores, occ)
					if cached != 0 {
						t.Fatalf("%s: store-everything pass served %d from cache", label, cached)
					}
					for qi, l := range want {
						if occ != nil && !occ[qi] {
							continue
						}
						if run := stored.QueryRun(qi); !slices.Equal(run, l.Entries()) {
							t.Fatalf("%s: stored query %d = %v, memo %v", label, qi, run, l)
						}
					}
					if mat := r.Run(scores, occ); mat != rec {
						t.Fatalf("%s: streamed run counted %d, store-everything pass %d", label, mat, rec)
					}
					sameQueryRuns(t, label, occ, r, stored)

					clear(isOutput)
					for qi, slot := range pr.QuerySlot {
						if int(slot) < pr.NumInstr() && (occ == nil || occ[qi]) {
							isOutput[slot] = true
						}
					}
					clear(readers)
					need := cone(pr, occ)
					for ins, needed := range need {
						if needed {
							for _, d := range pr.Deps[pr.DepStart[ins]:pr.DepStart[ins+1]] {
								readers[d]++
							}
						}
					}
					for ins, needed := range need {
						held := r.Held(ins)
						if wantHeld := needed && (isOutput[ins] || readers[ins] >= 2); held != wantHeld {
							t.Fatalf("%s: instruction %d held %v, want %v (query output %v, %d needed readers)",
								label, ins, held, wantHeld, isOutput[ins], readers[ins])
						}
						switch {
						case held && !isOutput[ins]:
							sharedHeld++
						case needed && !held:
							streamed++
						}
					}
				}
			}
		}
	}
	if streamed == 0 || sharedHeld == 0 {
		t.Fatalf("streamed %d instruction runs, stored %d shared ones: both must occur", streamed, sharedHeld)
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
			for _, np := range programs(p) {
				pr := np.pr
				scores := randomScores(rng, inst.NumVars)
				r := plan.NewRunner(pr, k)
				ref := plan.NewRunner(pr, k)

				mat := r.Run(scores, nil)
				if rec, cached := r.RunIncremental(scores, nil); cached != 0 || rec != mat {
					t.Fatalf("seed %d plan %d %s: after a Run, RunIncremental recomputed %d and served %d from cache (cone %d)",
						seed, pi, np.name, rec, cached, mat)
				}
				for round := 0; round < 60; round++ {
					for i := rng.Intn(4); i > 0; i-- {
						v := rng.Intn(inst.NumVars)
						scores[v] = float64(rng.Intn(3)) * (1 + rng.Float64()*9)
						r.Invalidate(v)
					}
					occ := randomOcc(rng, len(inst.Queries))
					label := fmt.Sprintf("seed %d plan %d %s round %d", seed, pi, np.name, round)
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
