package sharedagg

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"sharedwd/internal/bitset"
	"sharedwd/internal/plan"
	"sharedwd/internal/workload"
)

// builders pairs each exported entry point with its reference twin.
var builders = []struct {
	name     string
	build    func(*builder) *plan.Plan
	refBuild func(*plan.Instance) *plan.Plan
}{
	{"Build", (*builder).build, refBuild},
	{"BuildDisjoint", func(b *builder) *plan.Plan { b.disjoint = true; return b.build() }, refBuildDisjoint},
	{"BuildFragmentOnly", (*builder).buildFragmentOnly, refBuildFragmentOnly},
}

// samePlan fails unless got and want agree node for node (children and
// label) and query for query.
func samePlan(t *testing.T, what string, got, want *plan.Plan) {
	t.Helper()
	if len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("%s: %d nodes, reference has %d", what, len(got.Nodes), len(want.Nodes))
	}
	for i, g := range got.Nodes {
		w := want.Nodes[i]
		if g.ID != w.ID || g.Left != w.Left || g.Right != w.Right || !g.Vars.Equal(w.Vars) {
			t.Fatalf("%s: node %d = (%d ⊕ %d) %v, reference (%d ⊕ %d) %v",
				what, i, g.Left, g.Right, g.Vars, w.Left, w.Right, w.Vars)
		}
	}
	for qi, g := range got.QueryNode {
		if g != want.QueryNode[qi] {
			t.Fatalf("%s: query %d → node %d, reference %d", what, qi, g, want.QueryNode[qi])
		}
	}
}

// matchesReference holds all three entry points to the reference on inst
// and on inst re-posed under fresh rates. keys, when non-nil, replaces the
// builder's per-variable hash keys.
func matchesReference(t *testing.T, what string, inst *plan.Instance, rng *rand.Rand, keys func(v int) uint64) {
	t.Helper()
	reposed := &plan.Instance{NumVars: inst.NumVars, Queries: make([]plan.Query, len(inst.Queries))}
	for i, q := range inst.Queries {
		reposed.Queries[i] = plan.Query{Vars: q.Vars}
		if rng.Intn(5) > 0 {
			reposed.Queries[i].Rate = rng.Float64()
		}
	}
	for _, in := range []*plan.Instance{inst, reposed} {
		for _, bd := range builders {
			b := newBuilder(in)
			if keys != nil {
				for v := range b.varKey {
					b.varKey[v] = keys(v)
				}
			}
			samePlan(t, what+"/"+bd.name, bd.build(b), bd.refBuild(in))
		}
	}
}

// drawInstance returns a seeded random instance with the shapes the builder
// special-cases mixed in: zero-rate queries, singleton queries, variables no
// query uses, and (which NewInstance would reject, but AddAggregate's
// bind-every-equal-label rule supports) queries with duplicate labels.
func drawInstance(rng *rand.Rand) *plan.Instance {
	var inst *plan.Instance
	if rng.Intn(2) == 0 {
		inst = plan.RandomCoinFlipInstance(rng, 4+rng.Intn(60), 2+rng.Intn(12), 0.05+0.95*rng.Float64())
	} else {
		inst = plan.RandomOverlapInstance(rng, 20+rng.Intn(180), 4+rng.Intn(30), 1+rng.Intn(6), 0.05, 1)
	}
	n := inst.NumVars
	queries := append([]plan.Query(nil), inst.Queries...)
	if rng.Intn(2) == 0 { // an unused variable, unless dropping it empties a query
		v := rng.Intn(n)
		ok := true
		for _, q := range queries {
			ok = ok && !(q.Vars.Contains(v) && q.Vars.Count() == 1)
		}
		for i := range queries {
			if !ok {
				break
			}
			queries[i].Vars = queries[i].Vars.Clone()
			queries[i].Vars.Remove(v)
		}
	}
	for i := range queries {
		if rng.Intn(6) == 0 {
			queries[i].Rate = 0
		}
	}
	if rng.Intn(2) == 0 {
		queries = append(queries, plan.Query{Vars: bitset.FromIndices(n, rng.Intn(n)), Rate: rng.Float64()})
	}
	if rng.Intn(3) == 0 {
		dup := queries[rng.Intn(len(queries))]
		dup.Rate = rng.Float64()
		queries = append(queries, dup)
	}
	rng.Shuffle(len(queries), func(i, j int) { queries[i], queries[j] = queries[j], queries[i] })
	return &plan.Instance{NumVars: n, Queries: queries}
}

// draws is how many seeded instances a test compares: n, or a sixth of it
// under the race detector, which has no second goroutine to watch here and
// slows the reference builder tenfold.
func draws(n int64) int64 {
	if raceEnabled {
		return n / 6
	}
	return n
}

// benchmarkUniverses are the three universes benchmark/spec.go pins.
func benchmarkUniverses() []struct {
	name string
	cfg  workload.Config
} {
	big := workload.DefaultConfig()
	big.NumAdvertisers, big.NumPhrases, big.NumTopics = 2000, 64, 8
	overlap := workload.HighOverlapConfig()
	overlap.NumAdvertisers, overlap.NumPhrases = 2000, 64
	return []struct {
		name string
		cfg  workload.Config
	}{{"big", big}, {"overlap", overlap}, {"small", workload.DefaultConfig()}}
}

// universeInstance poses a generated workload the way core.New does.
func universeInstance(tb testing.TB, cfg workload.Config, seed int64) *plan.Instance {
	cfg.Seed = seed
	w := workload.Generate(cfg)
	queries := make([]plan.Query, len(w.Interests))
	for q := range queries {
		queries[q] = plan.Query{Vars: w.Interests[q], Rate: w.Rates[q]}
	}
	inst, err := plan.NewInstance(len(w.Advertisers), queries)
	if err != nil {
		tb.Fatal(err)
	}
	return inst
}

// planDigest is the sha256 PR 16 and ISSUE 24 quote: every node's ID and
// children, then the query bindings.
func planDigest(p *plan.Plan) string {
	h := sha256.New()
	for _, n := range p.Nodes {
		fmt.Fprintf(h, "%d %d %d|", n.ID, n.Left, n.Right)
	}
	fmt.Fprintf(h, "%v", p.QueryNode)
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestBuildMatchesReference: the production builder and the pre-rewrite
// builder kept in reference_test.go produce the same plan, node for node,
// from all three entry points — on seeded random draws and on the benchmark's
// universes, whose digests are the ones the parent commit printed.
func TestBuildMatchesReference(t *testing.T) {
	for seed := int64(0); seed < draws(240); seed++ {
		rng := rand.New(rand.NewSource(seed))
		matchesReference(t, fmt.Sprintf("draw %d", seed), drawInstance(rng), rng, nil)
	}
	wantDigest := map[string]string{
		"big/1": "4740fc4e82e816c5", "big/2": "d91bfd8d894d7298",
		"overlap/1": "e3fd3167fcd3b0fc", "overlap/2": "1f0981825d379cf3",
		"small/1": "0ef5b323f2c84320", "small/2": "6bd4dde6c8965804",
	}
	for _, u := range benchmarkUniverses() {
		if (testing.Short() || raceEnabled) && u.cfg.NumAdvertisers > 1000 {
			continue // ~1 s per reference build, ten times that under -race
		}
		for seed := int64(1); seed <= 2; seed++ {
			what := fmt.Sprintf("%s/%d", u.name, seed)
			inst := universeInstance(t, u.cfg, seed)
			matchesReference(t, what, inst, rand.New(rand.NewSource(seed)), nil)
			got := planDigest(Build(inst))
			t.Logf("%s sha256 %s", what, got)
			if got != wantDigest[what] {
				t.Errorf("%s: plan digest %s, the parent's was %s", what, got, wantDigest[what])
			}
		}
	}
}

// TestBuildSurvivesHashCollisions: the active-set index verifies every hash
// hit exactly, so degenerate key tables — all zero (every lookup collides
// with every node) and one-bit keys — cost time and change no plan.
func TestBuildSurvivesHashCollisions(t *testing.T) {
	keyTables := map[string]func(v int) uint64{
		"zero":   func(int) uint64 { return 0 },
		"onebit": func(v int) uint64 { return uint64(v) & 1 },
	}
	for name, keys := range keyTables {
		for seed := int64(0); seed < draws(30); seed++ {
			rng := rand.New(rand.NewSource(seed))
			matchesReference(t, fmt.Sprintf("%s keys, draw %d", name, seed), drawInstance(rng), rng, keys)
		}
		small := benchmarkUniverses()[2]
		matchesReference(t, name+" keys, small/1", universeInstance(t, small.cfg, 1), rand.New(rand.NewSource(1)), keys)
	}
}

// TestBuildAllocBudget gates the build's cost deterministically, where
// wall-clock cannot: the pre-rewrite builder allocated for every pair it
// considered (427,485 allocations on this universe); the hash-indexed one
// allocates per plan node and little else (5,779). The ceiling is ~20 % above
// that.
func TestBuildAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	inst := universeInstance(t, benchmarkUniverses()[2].cfg, 1)
	const ceiling = 6900
	got := testing.AllocsPerRun(5, func() { Build(inst) })
	t.Logf("Build on 400 × 24 seed 1: %.0f allocations", got)
	if got > ceiling {
		t.Fatalf("Build allocated %.0f times, budget %d", got, ceiling)
	}
}
