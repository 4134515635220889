package sharedagg

// The stage-2 builder as it stood before the hash-indexed rewrite (PR 23's
// sharedagg.go, moved here verbatim under the refBuilder name). It is the
// oracle TestBuildMatchesReference and TestBuildSurvivesHashCollisions hold
// the production builder to, node for node; nothing outside _test.go files
// can reach it.

import (
	"sort"

	"sharedwd/internal/bitset"
	"sharedwd/internal/plan"
)

func refBuild(inst *plan.Instance) *plan.Plan {
	b := newRefBuilder(inst)
	b.identifyFragments()
	b.initCovers()
	b.completeGreedy()
	return b.p
}

func refBuildDisjoint(inst *plan.Instance) *plan.Plan {
	b := newRefBuilder(inst)
	b.disjoint = true
	b.identifyFragments()
	b.initCovers()
	b.completeGreedy()
	return b.p
}

func refBuildFragmentOnly(inst *plan.Instance) *plan.Plan {
	b := newRefBuilder(inst)
	b.identifyFragments()
	b.initCovers()
	for qi := range inst.Queries {
		if b.p.QueryNode[qi] != -1 {
			continue
		}
		ids := make([]int, len(b.covers[qi]))
		for i, a := range b.covers[qi] {
			ids[i] = b.active[a]
		}
		b.p.Chain(ids)
	}
	return b.p
}

type refBuilder struct {
	inst *plan.Instance
	p    *plan.Plan
	// active holds node IDs eligible as cover elements and pair operands:
	// fragment roots and stage-2 aggregates. Chain intermediates and leaves
	// inside multi-variable fragments are dominated by their fragment root
	// (any query containing the leaf contains the whole fragment), so they
	// are excluded.
	active []int
	// size[a] is active node a's variable count, kept beside active so the
	// cover sort compares ints rather than popcounting two variable sets
	// per comparison.
	size []int
	// activeIdx maps active variable-set keys to their index in active,
	// both to suppress duplicates and for exact-complement lookups.
	activeIdx map[string]int
	// disjoint constrains stage 2 to partition-preserving replacements
	// (see BuildDisjoint).
	disjoint bool
	// covers[qi] is query qi's current exact cover as indices into active,
	// kept sorted by descending element size. Cover sizes only decrease.
	covers [][]int
	// membership[a] is the bitset of incomplete queries whose cover
	// currently contains active node a.
	membership []bitset.Set
}

func newRefBuilder(inst *plan.Instance) *refBuilder {
	return &refBuilder{
		inst:      inst,
		p:         plan.NewPlan(inst),
		activeIdx: make(map[string]int),
		covers:    make([][]int, len(inst.Queries)),
	}
}

// identifyFragments groups variables by their query-membership signature and
// chains each group. O(m·n) signature construction plus hashed grouping —
// the paper's O(mn log n) bound with the hash-table alternative it mentions.
func (b *refBuilder) identifyFragments() {
	m := len(b.inst.Queries)
	sig := make([]bitset.Set, b.inst.NumVars)
	for v := range sig {
		sig[v] = bitset.New(m)
	}
	for qi, q := range b.inst.Queries {
		q.Vars.ForEach(func(v int) bool {
			sig[v].Add(qi)
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
		root := b.p.Chain(groups[k])
		b.addActive(root)
	}
}

// initCovers sets every incomplete query's cover to its fragment partition
// — the unique exact cover from the pairwise-disjoint fragment roots —
// sorted by descending fragment size.
func (b *refBuilder) initCovers() {
	m := len(b.inst.Queries)
	b.membership = make([]bitset.Set, len(b.active))
	for a := range b.membership {
		b.membership[a] = bitset.New(m)
	}
	for qi, q := range b.inst.Queries {
		if b.p.QueryNode[qi] != -1 {
			continue
		}
		var cover []int
		for a := range b.active {
			if b.vars(a).SubsetOf(q.Vars) && b.vars(a).Intersects(q.Vars) {
				cover = append(cover, a)
			}
		}
		b.sortCover(cover)
		b.covers[qi] = cover
		for _, a := range cover {
			b.membership[a].Add(qi)
		}
	}
}

func (b *refBuilder) sortCover(cover []int) {
	sort.Slice(cover, func(i, j int) bool {
		ci, cj := b.size[cover[i]], b.size[cover[j]]
		if ci != cj {
			return ci > cj
		}
		return cover[i] < cover[j]
	})
}

func (b *refBuilder) addActive(id int) int {
	vars := b.p.Nodes[id].Vars
	k := vars.Key()
	if a, ok := b.activeIdx[k]; ok {
		return a
	}
	a := len(b.active)
	b.activeIdx[k] = a
	b.active = append(b.active, id)
	b.size = append(b.size, vars.Count())
	if b.membership != nil {
		b.membership = append(b.membership, bitset.New(len(b.inst.Queries)))
	}
	return a
}

func (b *refBuilder) vars(a int) bitset.Set { return b.p.Nodes[b.active[a]].Vars }

// completeGreedy is stage 2. Each step picks the pair of active nodes with
// the greatest expected coverage gain — Σ sr_q over the incomplete queries
// whose covers contain both nodes, since merging two cover-mates shrinks
// that query's cover by one — preferring pairs whose union completes a
// missing query node outright (zero extra cost, paper step 2b). When no
// candidate pair in the scan window has positive gain, the first incomplete
// query is finished by chaining its whole cover, which is exactly the
// paper's "aggregate the cover with an arbitrary binary tree" completion.
func (b *refBuilder) completeGreedy() {
	for {
		// Sweep covers of queries bound as a side effect of node creation
		// (AddAggregate binds any unassigned query with an equal label).
		for qi := range b.inst.Queries {
			if b.p.QueryNode[qi] != -1 && len(b.covers[qi]) > 0 {
				b.coverBecame(qi, nil)
			}
		}
		incomplete := b.incompleteQueries()
		if len(incomplete) == 0 {
			return
		}
		u, v, multi := b.bestPair(incomplete)
		if u != -1 && !multi {
			// The best pair's gain comes from a single query, i.e. no
			// cross-query sharing is available in the scan windows. Merging
			// such a pair is just one step of privately chaining that
			// query's cover, so chain it wholesale (plan-cost equivalent,
			// far fewer rescans).
			u = -1
		}
		if u == -1 {
			// No shareable pair: finish the first incomplete query by
			// chaining its cover; prefix aggregates become active so later
			// queries may still reuse them via subsumption.
			qi := incomplete[0]
			cover := b.covers[qi]
			acc := cover[0]
			for _, a := range cover[1:] {
				accID := b.p.AddAggregate(b.active[acc], b.active[a])
				acc = b.addActive(accID)
			}
			if b.p.QueryNode[qi] == -1 {
				panic("sharedagg: chaining an exact cover failed to complete its query")
			}
			b.coverBecame(qi, nil)
			continue
		}
		// Create (or reuse) the aggregate of the chosen pair.
		union := b.vars(u).Union(b.vars(v))
		var w int
		if a, ok := b.activeIdx[union.Key()]; ok {
			w = a
		} else {
			w = b.addActive(b.p.AddAggregate(b.active[u], b.active[v]))
		}
		// Update the covers that contained u or v, keeping exactness: the
		// new node may only enter covers of queries it fits inside.
		wVars := b.vars(w)
		affected := b.membership[u].Union(b.membership[v])
		affected.ForEach(func(qi int) bool {
			if b.p.QueryNode[qi] != -1 {
				b.coverBecame(qi, nil)
				return true
			}
			if !wVars.SubsetOf(b.inst.Queries[qi].Vars) {
				return true
			}
			b.coverBecame(qi, refReplaceSubsumed(b, b.covers[qi], w))
			return true
		})
	}
}

// coverBecame installs a query's new cover (nil when the query completed),
// maintaining the membership index and keeping covers size-sorted.
func (b *refBuilder) coverBecame(qi int, cover []int) {
	for _, a := range b.covers[qi] {
		b.membership[a].Remove(qi)
	}
	if b.p.QueryNode[qi] != -1 {
		cover = nil
	}
	b.sortCover(cover)
	b.covers[qi] = cover
	for _, a := range cover {
		b.membership[a].Add(qi)
	}
}

func (b *refBuilder) incompleteQueries() []int {
	var out []int
	for qi, id := range b.p.QueryNode {
		if id == -1 {
			out = append(out, qi)
		}
	}
	return out
}

// replaceSubsumed substitutes newA for every element of cover contained in
// its variable set (when at least one is), keeping the cover exact. In
// disjoint mode the replacement additionally requires the subsumed
// elements to union to exactly newA's variable set, so a partition cover
// stays a partition.
func refReplaceSubsumed(b *refBuilder, cover []int, newA int) []int {
	w := b.vars(newA)
	var kept []int
	var subsumed []int
	for _, a := range cover {
		if b.vars(a).SubsetOf(w) {
			subsumed = append(subsumed, a)
			continue
		}
		kept = append(kept, a)
	}
	if len(subsumed) == 0 {
		return cover
	}
	if b.disjoint {
		union := b.vars(subsumed[0]).Clone()
		for _, a := range subsumed[1:] {
			union.UnionInPlace(b.vars(a))
		}
		if !union.Equal(w) {
			return cover // replacing would double-count w's other variables
		}
	}
	return append(kept, newA)
}

// bestPair scans candidate pairs — pairs within the leading window of each
// incomplete query's cover, plus exact-complement completion partners — and
// returns the winner as active indices plus whether its gain spans multiple
// queries (true cross-query sharing). It returns (-1, -1, false) if no
// candidate has positive expected gain.
func (b *refBuilder) bestPair(incomplete []int) (int, int, bool) {
	bestU, bestV := -1, -1
	bestGain := 0.0
	bestCompletes := false
	bestMulti := false
	scored := make(map[[2]int]bool)

	consider := func(u, v int, knownComplete bool) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		key := [2]int{u, v}
		if scored[key] {
			return
		}
		scored[key] = true
		shared := b.membership[u].Intersect(b.membership[v])
		gain := 0.0
		sharedCount := 0
		completes := knownComplete
		shared.ForEach(func(qi int) bool {
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
		case completes != bestCompletes:
			better = completes
		case gain != bestGain:
			better = gain > bestGain
		case bestU == -1:
			better = true
		default:
			better = u < bestU || (u == bestU && v < bestV)
		}
		if better {
			bestU, bestV, bestGain, bestCompletes = u, v, gain, completes
			bestMulti = sharedCount >= 2 || completes
		}
	}

	for _, qi := range incomplete {
		cover := b.covers[qi]
		window := len(cover)
		if window > pairWindow {
			window = pairWindow
		}
		for i := 0; i < window; i++ {
			for j := i + 1; j < window; j++ {
				consider(cover[i], cover[j], false)
			}
		}
		// Exact-complement completion partners: for each windowed cover
		// element u, an existing node equal to X_q \ u completes the query
		// at zero extra cost.
		target := b.inst.Queries[qi].Vars
		for i := 0; i < window; i++ {
			complement := target.Difference(b.vars(cover[i]))
			if complement.IsEmpty() {
				continue
			}
			if v, ok := b.activeIdx[complement.Key()]; ok {
				consider(cover[i], v, true)
			}
		}
	}
	return bestU, bestV, bestMulti
}
