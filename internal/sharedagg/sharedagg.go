// Package sharedagg implements the paper's two-stage heuristic for building
// shared top-k aggregation plans (Section II-D):
//
//  1. Fragment identification: variables are grouped by the exact set of
//     queries they appear in (Krishnamurthy–Wu–Franklin fragments) and each
//     fragment is pre-aggregated, since no sharing can cut across a
//     fragment.
//  2. Greedy completion: until every query has a node, aggregate the pair of
//     existing nodes with the greatest expected greedy-coverage gain per
//     unit extra cost, preferring pairs that complete a query node outright
//     (those have zero extra cost).
//
// Because fragments partition every query's variable set, the initial exact
// cover of each query is unique: the fragments it contains, read off the
// stage-1 signatures. Stage 2 maintains those covers incrementally — each
// new aggregate replaces the cover elements it subsumes, in place — rather
// than re-running a generic greedy set cover per step. Pair gains are
// weighted by search rates sr_q, so probable queries attract sharing before
// rare ones, exactly as the paper prescribes.
//
// What a build costs, measured on the benchmark's 2,000-advertiser × 64-phrase
// low-overlap universe (seed 1): stage 1 finds 1,888 fragments; stage 2 takes
// 1,178 steps — 1,114 pair merges, each after scanning the ≤ 8-element window
// of every incomplete query (≈ 58 of them, 28 pairs and 8 complement probes
// each: 1.69 M pair scorings and 0.55 M probes per build), and 64 cover
// chains, which create 38.5 k of the plan's 39.7 k internal nodes. Merges
// rescan 5,265 covers (3.3 M elements, 99.6 % rejected by size or first
// variable before any subset test). So the work is steps × incomplete
// queries × window², not Σ_q |X_q|, and the builder is organised to make
// each of those units cheap rather than to avoid them:
//
//   - Active nodes are indexed by a 64-bit XOR-of-variable-keys hash, so
//     "does X_q \ u exist" is one map probe of qhash ^ hash[u], and a
//     union's or chain prefix's hash extends an operand's by the variables
//     added; no set or key string is built to ask. Every hit is verified
//     exactly (set equality, or size + containment + disjointness for a
//     complement) — a collision costs a comparison, never a different plan.
//   - A pair is scored by walking membership[u] ∩ membership[v] in place, once
//     per step (a generation-stamped pair set). Scores are not carried across
//     steps: 97.5 % of them would be reusable, but a lookup in a table of
//     34 k pairs costs what the one-word intersection does (measured 8 %
//     slower, five of five alternating runs).
//   - Covers live in one slab and are edited in place under a total order
//     (size descending, index ascending), so placing an aggregate is a binary
//     search, and a cover that subsumes nothing is not touched.
//
// The plan is a function of the instance alone — hash keys are fixed, and
// TestBuildMatchesReference holds every entry point, node for node, to the
// builder this one replaced (reference_test.go).
//
// The package is offline: the figures, the facade's plan builder and the
// tests that hold the engine to the plan use it, and no serving package
// imports it (TestServingImportBoundary). The shard fleet places phrases by
// the same stage-1 fragments without it: a fragment lies on a shard exactly
// when its advertisers do, so internal/shard reads fragment affinity off
// per-shard advertiser unions.
package sharedagg

import (
	"fmt"
	"sort"

	"sharedwd/internal/bitset"
	"sharedwd/internal/plan"
)

// pairWindow bounds how many elements of each query's cover are scanned for
// candidate pairs per step. Covers keep their largest elements first, so
// the window holds the highest-value sharing candidates; the fallback path
// guarantees completion regardless.
const pairWindow = 8

// Build runs the full two-stage heuristic and returns a complete, validated
// plan for the instance. It panics only on internal invariant violations;
// any valid instance yields a plan.
//
// Covers may overlap (two plan nodes feeding one query may share
// variables), which is sound for the idempotent top-k merge — Lemma 1's
// set semantics — but NOT for multiset aggregates like sum or count. Use
// BuildDisjoint for those.
func Build(inst *plan.Instance) *plan.Plan {
	return newBuilder(inst).build()
}

// BuildCompiled runs the full heuristic, validates the resulting plan, and
// lowers it to the flat instruction stream the round engine executes
// (plan.Compile). The heuristic's output is deliberately compiler-friendly:
// stage 1 emits each fragment as a left-deep chain whose interior nodes
// have exactly one consumer, so the compiler fuses every fragment into a
// single fold over its leaves' scores, while stage-2 aggregates — the nodes
// that actually carry cross-query sharing — stay individually materialized
// and stored for their consumers where they are large enough to pay for it
// (the compiler fuses smaller ones into each consumer too). Returning both
// forms lets callers keep the Plan for cost accounting, serialization, and
// visualization while executing the Program.
func BuildCompiled(inst *plan.Instance) (*plan.Plan, *plan.Program, error) {
	p := Build(inst)
	if err := p.Validate(); err != nil {
		return nil, nil, fmt.Errorf("sharedagg: invalid plan: %w", err)
	}
	return p, plan.Compile(p), nil
}

// BuildDisjoint runs the same heuristic constrained so that every
// aggregation node's children are variable-disjoint: each query's cover
// stays a *partition* of its variable set, so every variable flows into
// each query exactly once. This is the plan shape required by
// non-idempotent (multiset-semantics) aggregates — sum, count, mean —
// mirroring the paper's Figure-5 distinction between semilattice and
// Abelian-group operators. Sharing opportunities are a subset of Build's,
// so the plan may cost slightly more.
func BuildDisjoint(inst *plan.Instance) *plan.Plan {
	b := newBuilder(inst)
	b.disjoint = true
	return b.build()
}

// BuildFragmentOnly runs stage 1 and then completes each query with a plain
// chain over its fragment cover, with no cross-query sharing beyond the
// fragments themselves. This is the "stage-1 only" ablation baseline.
func BuildFragmentOnly(inst *plan.Instance) *plan.Plan {
	return newBuilder(inst).buildFragmentOnly()
}

type builder struct {
	inst *plan.Instance
	p    *plan.Plan
	// disjoint constrains stage 2 to partition-preserving replacements
	// (see BuildDisjoint).
	disjoint bool

	// varKey[v] is variable v's 64-bit key; a variable set hashes to the XOR
	// of its members' keys, so a union's hash extends an operand's by the
	// variables the other adds, and a query's complement of a cover element
	// hashes to qhash ^ hash with no set built. Every lookup verifies its
	// hits exactly: a collision costs a comparison and never changes a plan.
	varKey []uint64
	// qhash[qi] and qsize[qi] are query qi's variable-set hash and size.
	qhash []uint64
	qsize []int

	// active holds the nodes eligible as cover elements and pair operands:
	// fragment roots and stage-2 aggregates. Chain intermediates and leaves
	// inside multi-variable fragments are dominated by their fragment root
	// (any query containing the leaf contains the whole fragment), so they
	// are excluded. No two active nodes share a variable set.
	active []activeNode
	// activeIdx maps a hash to the newest active node carrying it, whose
	// older field leads to the rest: the index behind duplicate suppression
	// and exact-complement lookups.
	activeIdx map[uint64]int
	// fragQueries[a] is the set of queries containing fragment root a (its
	// stage-1 signature); fragment roots are active nodes 0..len-1.
	fragQueries []bitset.Set

	// covers[qi] is incomplete query qi's current exact cover as indices
	// into active, ordered by descending size, then ascending index. Covers
	// only shrink, so each lives in its slice of one slab.
	covers [][]int
	// membership[a] is the set of incomplete queries whose cover currently
	// contains active node a. It may run ahead of active: chain steps
	// reserve their prefixes' sets in one batch.
	membership []bitset.Set
	// incomplete lists, ascending, the queries with no node yet.
	incomplete []int

	scored         pairSet // pairs bestPair has scored this step
	kept, subsumed []int   // absorb's scratch
}

// activeNode is one entry of builder.active.
type activeNode struct {
	id    int    // plan node
	size  int    // variable count, kept so cover order compares ints
	first int    // smallest variable
	hash  uint64 // XOR of its variables' keys
	older int    // next older active node with the same hash, or -1
}

func newBuilder(inst *plan.Instance) *builder {
	b := &builder{
		inst:      inst,
		p:         plan.NewPlan(inst),
		varKey:    make([]uint64, inst.NumVars),
		activeIdx: make(map[uint64]int),
		covers:    make([][]int, len(inst.Queries)),
	}
	for v := range b.varKey {
		// splitmix64 of v+1: fixed keys, so builds are reproducible.
		z := uint64(v+1) * 0x9e3779b97f4a7c15
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		b.varKey[v] = z ^ z>>31
	}
	return b
}

func (b *builder) build() *plan.Plan {
	b.identifyFragments()
	b.initCovers()
	b.completeGreedy()
	return b.p
}

func (b *builder) buildFragmentOnly() *plan.Plan {
	b.identifyFragments()
	b.initCovers()
	for _, qi := range b.incomplete {
		if b.p.QueryNode[qi] != -1 {
			continue // bound by an earlier chain with the same label
		}
		ids := make([]int, len(b.covers[qi]))
		for i, a := range b.covers[qi] {
			ids[i] = b.active[a].id
		}
		b.p.Chain(ids)
	}
	return b.p
}

// identifyFragments groups variables by their query-membership signature and
// chains each group. O(m·n) signature construction plus hashed grouping —
// the paper's O(mn log n) bound with the hash-table alternative it mentions.
func (b *builder) identifyFragments() {
	m := len(b.inst.Queries)
	b.qhash, b.qsize = make([]uint64, m), make([]int, m)
	sig := make([]bitset.Set, b.inst.NumVars)
	for v := range sig {
		sig[v] = bitset.New(m)
	}
	for qi, q := range b.inst.Queries {
		q.Vars.ForEach(func(v int) bool {
			sig[v].Add(qi)
			b.qhash[qi] ^= b.varKey[v]
			b.qsize[qi]++
			return true
		})
	}
	groups := make(map[string][]int)
	var order []string // deterministic iteration: first-seen order
	for v := 0; v < b.inst.NumVars; v++ {
		if sig[v].IsEmpty() {
			continue // variable used by no query
		}
		k := sig[v].Key()
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], v)
	}
	for _, k := range order {
		group := groups[k]
		h := uint64(0)
		for _, v := range group {
			h ^= b.varKey[v]
		}
		// Fragments are pairwise disjoint, so none is already active.
		b.addActive(b.p.Chain(group), h)
		b.fragQueries = append(b.fragQueries, sig[group[0]])
	}
}

// initCovers sets every incomplete query's cover to its fragment partition
// — the unique exact cover from the pairwise-disjoint fragment roots, read
// off the stage-1 signatures — ordered by descending fragment size.
func (b *builder) initCovers() {
	fragments := make([]int, len(b.inst.Queries)) // fragments per query
	total := 0
	for _, queries := range b.fragQueries {
		queries.ForEach(func(qi int) bool {
			fragments[qi]++
			total++
			return true
		})
	}
	slab := make([]int, total)
	for qi, n := range fragments {
		if b.p.QueryNode[qi] == -1 {
			b.covers[qi], slab = slab[:0:n], slab[n:]
			b.incomplete = append(b.incomplete, qi)
		}
	}
	for a, queries := range b.fragQueries {
		queries.ForEach(func(qi int) bool {
			if b.p.QueryNode[qi] == -1 {
				b.covers[qi] = append(b.covers[qi], a)
				b.membership[a].Add(qi)
			}
			return true
		})
	}
	for _, qi := range b.incomplete {
		cover := b.covers[qi]
		sort.Slice(cover, func(i, j int) bool { return b.before(cover[i], cover[j]) })
	}
}

// before is the total order covers are kept under: larger variable sets
// first, ties by ascending active index.
func (b *builder) before(x, y int) bool {
	if sx, sy := b.active[x].size, b.active[y].size; sx != sy {
		return sx > sy
	}
	return x < y
}

func (b *builder) vars(a int) bitset.Set { return b.p.Nodes[b.active[a].id].Vars }

// bucket returns the newest active node whose hash is h, or -1.
func (b *builder) bucket(h uint64) int {
	if a, ok := b.activeIdx[h]; ok {
		return a
	}
	return -1
}

// lookup returns the active node whose variable set is vars (hashing to h),
// or -1.
func (b *builder) lookup(vars bitset.Set, h uint64) int {
	for c := b.bucket(h); c != -1; c = b.active[c].older {
		if b.vars(c).Equal(vars) {
			return c
		}
	}
	return -1
}

// addActive makes node id, whose variable set hashes to h and equals no
// active node's, active and returns its index.
func (b *builder) addActive(id int, h uint64) int {
	a := len(b.active)
	vars := b.p.Nodes[id].Vars
	first := -1
	vars.ForEach(func(v int) bool { first = v; return false })
	b.active = append(b.active, activeNode{id: id, size: vars.Count(), first: first, hash: h, older: b.bucket(h)})
	b.activeIdx[h] = a
	if len(b.membership) < len(b.active) {
		b.membership = append(b.membership, bitset.New(len(b.inst.Queries)))
	}
	return a
}

// unionHash returns the hash of vars(a) ∪ vars(c): a's hash extended by the
// variables c adds.
func (b *builder) unionHash(a, c int) uint64 {
	h, have := b.active[a].hash, b.vars(a)
	b.vars(c).ForEach(func(v int) bool {
		if !have.Contains(v) {
			h ^= b.varKey[v]
		}
		return true
	})
	return h
}

// completeGreedy is stage 2. Each step picks the pair of active nodes with
// the greatest expected coverage gain — Σ sr_q over the incomplete queries
// whose covers contain both nodes, since merging two cover-mates shrinks
// that query's cover by one — preferring pairs whose union completes a
// missing query node outright (zero extra cost, paper step 2b). When no
// candidate pair in the scan window has positive gain, the first incomplete
// query is finished by chaining its whole cover, which is exactly the
// paper's "aggregate the cover with an arbitrary binary tree" completion.
func (b *builder) completeGreedy() {
	for {
		b.retireCompleted()
		if len(b.incomplete) == 0 {
			return
		}
		u, v, multi := b.bestPair()
		if u == -1 || !multi {
			// No pair, or the best pair's gain comes from a single query:
			// no cross-query sharing is available in the scan windows, and
			// merging such a pair is just one step of privately chaining
			// that query's cover. So finish the first incomplete query by
			// chaining its cover wholesale (plan-cost equivalent, far fewer
			// rescans).
			b.chainCover(b.incomplete[0])
			continue
		}
		// Create (or reuse) the aggregate of the chosen pair.
		union := b.vars(u).Union(b.vars(v))
		h := b.unionHash(u, v)
		w := b.lookup(union, h)
		if w == -1 {
			w = b.addActive(b.p.AddAggregate(b.active[u].id, b.active[v].id), h)
		}
		// Update the covers that contained u or v, keeping exactness: the
		// new node may only enter covers of queries it fits inside. Queries
		// the new node completed are retired at the top of the loop.
		wVars := b.vars(w)
		b.membership[u].Union(b.membership[v]).ForEach(func(qi int) bool {
			if b.p.QueryNode[qi] == -1 && wVars.SubsetOf(b.inst.Queries[qi].Vars) {
				b.absorb(qi, w)
			}
			return true
		})
	}
}

// retireCompleted drops from the incomplete list, the covers and the
// membership index every query that has a node by now: the one a step set
// out to complete, and any AddAggregate bound on the side because its label
// equalled the new node's.
func (b *builder) retireCompleted() {
	still := b.incomplete[:0]
	for _, qi := range b.incomplete {
		if b.p.QueryNode[qi] == -1 {
			still = append(still, qi)
			continue
		}
		for _, a := range b.covers[qi] {
			b.membership[a].Remove(qi)
		}
		b.covers[qi] = nil
	}
	b.incomplete = still
}

// chainCover completes query qi by aggregating its cover left-deep. The
// prefix aggregates become active, so later queries may still reuse them as
// completion partners or as an existing union.
func (b *builder) chainCover(qi int) {
	cover := b.covers[qi]
	if need := len(b.active) + len(cover) - 1 - len(b.membership); need > 0 {
		b.membership = append(b.membership, bitset.NewBatch(len(b.inst.Queries), need)...)
	}
	acc := cover[0]
	for _, a := range cover[1:] {
		h := b.unionHash(acc, a)
		id := b.p.AddAggregate(b.active[acc].id, b.active[a].id)
		if acc = b.lookup(b.p.Nodes[id].Vars, h); acc == -1 {
			acc = b.addActive(id, h)
		}
	}
	if b.p.QueryNode[qi] == -1 {
		panic("sharedagg: chaining an exact cover failed to complete its query")
	}
}

// absorb substitutes active node w for every element of query qi's cover
// contained in w's variable set (when at least one is), keeping the cover
// exact and ordered. In disjoint mode the replacement additionally requires
// the subsumed elements to union to exactly w's variable set, so a partition
// cover stays a partition. Most elements are rejected by size or by their
// first variable, before any subset test; a cover that subsumes nothing is
// left untouched.
func (b *builder) absorb(qi, w int) {
	wVars, wSize := b.vars(w), b.active[w].size
	kept, subsumed, mass := b.kept[:0], b.subsumed[:0], 0
	for _, a := range b.covers[qi] {
		if n := &b.active[a]; n.size <= wSize && wVars.Contains(n.first) && b.vars(a).SubsetOf(wVars) {
			subsumed = append(subsumed, a)
			mass += n.size
		} else {
			kept = append(kept, a)
		}
	}
	b.kept, b.subsumed = kept, subsumed
	// The subsumed elements of a partition are pairwise disjoint subsets of
	// w, so they union to w exactly when their sizes sum to w's.
	if len(subsumed) == 0 || (b.disjoint && mass != wSize) {
		return
	}
	for _, a := range subsumed {
		b.membership[a].Remove(qi)
	}
	b.membership[w].Add(qi)
	at := sort.Search(len(kept), func(i int) bool { return b.before(w, kept[i]) })
	cover := b.covers[qi][:len(kept)+1]
	copy(cover, kept[:at])
	cover[at] = w
	copy(cover[at+1:], kept[at:])
	b.covers[qi] = cover
}

// candidate is the best pair bestPair has seen so far in a step.
type candidate struct {
	u, v      int
	gain      float64
	completes bool
	multi     bool // its gain spans several queries, or it completes one
}

// bestPair scans candidate pairs — pairs within the leading window of each
// incomplete query's cover, plus exact-complement completion partners — and
// returns the winner as active indices plus whether its gain spans multiple
// queries (true cross-query sharing). It returns (-1, -1, false) if no
// candidate has positive expected gain.
func (b *builder) bestPair() (int, int, bool) {
	best := candidate{u: -1, v: -1}
	b.scored.reset(len(b.incomplete) * (pairWindow*(pairWindow-1)/2 + pairWindow))
	for _, qi := range b.incomplete {
		cover := b.covers[qi]
		window := min(len(cover), pairWindow)
		for i := 0; i < window; i++ {
			for j := i + 1; j < window; j++ {
				b.consider(&best, cover[i], cover[j], false)
			}
		}
		// Exact-complement completion partners: for each windowed cover
		// element u, an existing node equal to X_q \ u completes the query
		// at zero extra cost. u lies inside X_q, so the complement hashes
		// to qhash ^ hash[u]; a hit is the complement iff it has the
		// complement's size, lies inside X_q and misses u.
		target := b.inst.Queries[qi].Vars
		for _, u := range cover[:window] {
			want := b.qsize[qi] - b.active[u].size
			for c := b.bucket(b.qhash[qi] ^ b.active[u].hash); c != -1 && want > 0; c = b.active[c].older {
				if b.active[c].size == want && b.vars(c).SubsetOf(target) && !b.vars(c).Intersects(b.vars(u)) {
					b.consider(&best, u, c, true)
					break
				}
			}
		}
	}
	return best.u, best.v, best.multi
}

// consider scores the pair (u, v), once per step, and keeps it if it beats
// best: completing pairs first, then greater gain, then the smaller pair.
func (b *builder) consider(best *candidate, u, v int, knownComplete bool) {
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	if !b.scored.add(u, v) {
		return
	}
	gain := 0.0
	sharedCount := 0
	completes := knownComplete
	b.membership[u].ForEachCommon(b.membership[v], func(qi int) bool {
		gain += b.inst.Queries[qi].Rate
		sharedCount++
		// Covers are exact, so two cover-mates forming the whole
		// cover union to exactly the query's variable set.
		if len(b.covers[qi]) == 2 {
			completes = true
		}
		return true
	})
	// A completion partner found by complement lookup also serves every
	// query it already covers.
	if knownComplete && sharedCount == 0 {
		sharedCount = 1
	}
	if gain <= 0 && !completes {
		return
	}
	better := false
	switch {
	case completes != best.completes:
		better = completes
	case gain != best.gain:
		better = gain > best.gain
	case best.u == -1:
		better = true
	default:
		better = u < best.u || (u == best.u && v < best.v)
	}
	if better {
		*best = candidate{u: u, v: v, gain: gain, completes: completes, multi: sharedCount >= 2 || completes}
	}
}

// pairSet is the set of active-node pairs scored in the current step: an
// open-addressed table emptied by advancing a generation stamp.
type pairSet struct {
	keys  []uint64
	stamp []uint32
	gen   uint32
}

// reset empties the set and sizes it for up to n pairs at half load.
func (s *pairSet) reset(n int) {
	size := 16
	for size < 2*n {
		size *= 2
	}
	if s.gen++; size > len(s.keys) || s.gen == 0 {
		s.keys, s.stamp, s.gen = make([]uint64, size), make([]uint32, size), 1
	}
}

// add inserts the pair (u, v) and reports whether it was absent.
func (s *pairSet) add(u, v int) bool {
	key := uint64(u)<<32 | uint64(v)
	mask := uint64(len(s.keys) - 1)
	for i := key * 0x9e3779b97f4a7c15 >> 32 & mask; ; i = (i + 1) & mask {
		if s.stamp[i] != s.gen {
			s.keys[i], s.stamp[i] = key, s.gen
			return true
		}
		if s.keys[i] == key {
			return false
		}
	}
}
