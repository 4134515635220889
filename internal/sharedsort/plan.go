package sharedsort

import (
	"fmt"
	"sort"

	"sharedwd/internal/bitset"
)

// Options configures plan construction.
type Options struct {
	// DisableSharing skips the greedy sharing stage entirely, yielding one
	// private merge-sort tree per phrase — the unshared baseline.
	DisableSharing bool
}

// Plan is a shared merge-sort plan: a forest of on-demand merge operators
// with one root per phrase. Between rounds call BeginRound to install the
// current bids; during a round obtain per-phrase sorted streams with Stream.
type Plan struct {
	NumAdvertisers int
	NumPhrases     int
	Nodes          []*Node // leaves then merge nodes, in creation order
	Roots          []*Node // per phrase; nil if no advertiser is interested
	// SharedOperators counts merge operators created by the greedy sharing
	// stage (used by ≥ 2 phrases when created).
	SharedOperators int
	rates           []float64
	// usedBy[nodeID] = set of phrases whose tree contains the node.
	usedBy []bitset.Set
}

// Build constructs a shared merge-sort plan. interests[q] is the advertiser
// set of phrase q (all with capacity numAdvertisers); rates[q] is phrase q's
// search rate in [0,1].
func Build(numAdvertisers int, interests []bitset.Set, rates []float64, opts Options) (*Plan, error) {
	if len(interests) != len(rates) {
		return nil, fmt.Errorf("sharedsort: %d interest sets but %d rates", len(interests), len(rates))
	}
	numPhrases := len(interests)
	for q, in := range interests {
		if in.Cap() != numAdvertisers {
			return nil, fmt.Errorf("sharedsort: phrase %d capacity %d, want %d", q, in.Cap(), numAdvertisers)
		}
		if rates[q] < 0 || rates[q] > 1 {
			return nil, fmt.Errorf("sharedsort: phrase %d rate %v outside [0,1]", q, rates[q])
		}
	}
	p := &Plan{
		NumAdvertisers: numAdvertisers,
		NumPhrases:     numPhrases,
		Roots:          make([]*Node, numPhrases),
		rates:          append([]float64(nil), rates...),
	}

	// Leaves for advertisers interested in at least one phrase; tops[q] is
	// phrase q's current merge frontier.
	tops := make([][]*Node, numPhrases)
	for a := 0; a < numAdvertisers; a++ {
		phrases := bitset.New(numPhrases)
		for q, in := range interests {
			if in.Contains(a) {
				phrases.Add(q)
			}
		}
		if phrases.IsEmpty() {
			continue
		}
		n := &Node{
			ID:          len(p.Nodes),
			Advertisers: bitset.FromIndices(numAdvertisers, a),
			Phrases:     phrases,
			leaf:        true,
			leafItem:    Item{Advertiser: a},
		}
		p.Nodes = append(p.Nodes, n)
		phrases.ForEach(func(q int) bool {
			tops[q] = append(tops[q], n)
			return true
		})
	}

	if !opts.DisableSharing {
		p.preMergeFragments(tops)
		p.greedyShare(tops)
	}
	// Completion: fold each phrase's frontier into a single root with
	// phrase-private merges, pairing smallest nodes first to keep the tree
	// shallow (Huffman-style).
	for q := range tops {
		p.Roots[q] = p.foldFrontier(q, tops[q])
	}
	p.computeUsedBy()
	return p, nil
}

// savingsBeyondFirst computes E[#occurring phrases of qw beyond the first]
// = Σ_q sr_q − (1 − Π_q (1 − sr_q)), the closed form of the paper's savings
// factor, without allocating.
func (p *Plan) savingsBeyondFirst(qu, qv bitset.Set) float64 {
	total, probNone := 0.0, 1.0
	qu.ForEach(func(q int) bool {
		if qv.Contains(q) {
			total += p.rates[q]
			probNone *= 1 - p.rates[q]
		}
		return true
	})
	return total - (1 - probNone)
}

// preMergeFragments performs the greedy's provably-first moves in bulk:
// leaves with the *same* phrase annotation (a fragment) are each other's
// best merge partners — the savings factor is monotone in the shared
// phrase set, and an intra-fragment merge keeps the full annotation — so
// each fragment is folded into balanced power-of-two subtrees (respecting
// |I_u| = |I_v|) before the pairwise greedy runs. This reduces the greedy's
// frontier from n leaves to O(#fragments · log) roots without changing
// which cross-fragment merges remain available.
func (p *Plan) preMergeFragments(tops [][]*Node) {
	groups := make(map[string][]*Node)
	var order []string
	for _, n := range p.Nodes {
		if !n.leaf || n.Phrases.IsEmpty() {
			continue
		}
		k := n.Phrases.Key()
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], n)
	}
	for _, k := range order {
		members := groups[k]
		sig := members[0].Phrases
		// No reuse to gain unless ≥ 2 phrases can co-occur.
		if sig.Count() < 2 || p.savingsBeyondFirst(sig, sig) <= 0 {
			continue
		}
		// Fold equal-size nodes pairwise until sizes are distinct
		// (binary-counter decomposition).
		bySize := map[int][]*Node{}
		for _, n := range members {
			bySize[n.Size()] = append(bySize[n.Size()], n)
		}
		var roots []*Node
		for size := 1; len(bySize) > 0; size *= 2 {
			nodes := bySize[size]
			delete(bySize, size)
			for len(nodes) >= 2 {
				u, v := nodes[0], nodes[1]
				nodes = nodes[2:]
				w := p.newMerge(u, v, sig.Clone())
				p.SharedOperators++
				u.Phrases = bitset.New(p.NumPhrases)
				v.Phrases = bitset.New(p.NumPhrases)
				bySize[size*2] = append(bySize[size*2], w)
			}
			roots = append(roots, nodes...)
		}
		// Refresh the frontier of every phrase in the signature: drop the
		// fragment's original leaves (merged or not) and add the fold's
		// roots, which include any odd leftover leaves.
		member := make(map[*Node]bool, len(members))
		for _, n := range members {
			member[n] = true
		}
		sig.ForEach(func(q int) bool {
			keep := tops[q][:0]
			for _, n := range tops[q] {
				if member[n] {
					continue
				}
				keep = append(keep, n)
			}
			tops[q] = append(keep, roots...)
			return true
		})
	}
}

// bucketCap bounds the per-(phrase, size) candidate window greedyShare
// scans each level. Nodes beyond the window stay in the frontier and are
// reconsidered on later levels, so the cap trades per-level thoroughness
// for build time without losing candidates permanently.
const bucketCap = 64

// greedyShare is the paper's Section III-C heuristic: create shared merge
// nodes maximizing the expected savings
// |I_w| · E[occurrences of Q_w beyond the first], where Q_w is the set of
// phrases in whose frontier both children currently sit. Per the paper, a
// merge requires Q_u ∩ Q_v ≠ ∅, I_u ∩ I_v = ∅ (automatic within a
// frontier), and |I_u| = |I_v| — the size constraint is what keeps shared
// subtrees balanced, since the savings objective otherwise favors merging
// the largest nodes and would degrade tree shape.
//
// Rather than re-scanning all pairs after every single merge (quadratic ×
// number of merges), each level collects the positive-savings candidate
// pairs, then applies them best-first as a greedy matching — every node
// merges at most once per level, and savings are re-evaluated next level.
// Merging doubles node sizes, so the level count is logarithmic.
func (p *Plan) greedyShare(tops [][]*Node) {
	type cand struct {
		u, v *Node
		save float64
	}
	for {
		var cands []cand
		seenPair := make(map[[2]int]bool)
		for q := range tops {
			// Equal-size pairs only: bucket the frontier by size.
			bySize := make(map[int][]*Node)
			for _, n := range tops[q] {
				bySize[n.Size()] = append(bySize[n.Size()], n)
			}
			for _, bucket := range bySize {
				sort.Slice(bucket, func(a, b int) bool { return bucket[a].ID < bucket[b].ID })
				if len(bucket) > bucketCap {
					bucket = bucket[:bucketCap]
				}
				for i := 0; i < len(bucket); i++ {
					for j := i + 1; j < len(bucket); j++ {
						u, v := bucket[i], bucket[j]
						key := [2]int{u.ID, v.ID}
						if seenPair[key] {
							continue
						}
						seenPair[key] = true
						if u.Phrases.IntersectCount(v.Phrases) < 2 {
							continue // no second phrase to reuse the work
						}
						save := float64(u.Size()+v.Size()) * p.savingsBeyondFirst(u.Phrases, v.Phrases)
						if save > 0 {
							cands = append(cands, cand{u, v, save})
						}
					}
				}
			}
		}
		if len(cands) == 0 {
			return
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].save != cands[b].save {
				return cands[a].save > cands[b].save
			}
			if cands[a].u.ID != cands[b].u.ID {
				return cands[a].u.ID < cands[b].u.ID
			}
			return cands[a].v.ID < cands[b].v.ID
		})
		used := make(map[*Node]bool)
		merged := 0
		for _, c := range cands {
			if used[c.u] || used[c.v] {
				continue
			}
			qw := c.u.Phrases.Intersect(c.v.Phrases)
			if qw.Count() < 2 {
				continue
			}
			w := p.newMerge(c.u, c.v, qw)
			p.SharedOperators++
			merged++
			qw.ForEach(func(q int) bool {
				tops[q] = replaceInFrontier(tops[q], c.u, c.v, w)
				return true
			})
			c.u.Phrases = c.u.Phrases.Difference(qw)
			c.v.Phrases = c.v.Phrases.Difference(qw)
			used[c.u], used[c.v] = true, true
		}
		if merged == 0 {
			return
		}
	}
}

func (p *Plan) newMerge(u, v *Node, phrases bitset.Set) *Node {
	w := &Node{
		ID:          len(p.Nodes),
		Advertisers: u.Advertisers.Union(v.Advertisers),
		Phrases:     phrases,
		left:        u,
		right:       v,
	}
	p.Nodes = append(p.Nodes, w)
	return w
}

func replaceInFrontier(frontier []*Node, u, v, w *Node) []*Node {
	out := frontier[:0]
	for _, n := range frontier {
		if n != u && n != v {
			out = append(out, n)
		}
	}
	return append(out, w)
}

// foldFrontier merges a phrase's remaining frontier into one root using
// phrase-private operators, smallest pair first.
func (p *Plan) foldFrontier(q int, frontier []*Node) *Node {
	if len(frontier) == 0 {
		return nil
	}
	own := bitset.New(p.NumPhrases)
	own.Add(q)
	nodes := append([]*Node(nil), frontier...)
	for len(nodes) > 1 {
		sort.Slice(nodes, func(a, b int) bool {
			if nodes[a].Size() != nodes[b].Size() {
				return nodes[a].Size() < nodes[b].Size()
			}
			return nodes[a].ID < nodes[b].ID
		})
		w := p.newMerge(nodes[0], nodes[1], own.Clone())
		nodes = append(nodes[2:], w)
	}
	return nodes[0]
}

// computeUsedBy records, for every node, the phrases whose tree contains it
// (v ⤳ q in the paper's cost model).
func (p *Plan) computeUsedBy() {
	p.usedBy = make([]bitset.Set, len(p.Nodes))
	for i := range p.usedBy {
		p.usedBy[i] = bitset.New(p.NumPhrases)
	}
	for q, root := range p.Roots {
		if root == nil {
			continue
		}
		var walk func(n *Node)
		walk = func(n *Node) {
			if p.usedBy[n.ID].Contains(q) {
				return
			}
			p.usedBy[n.ID].Add(q)
			if !n.leaf {
				walk(n.left)
				walk(n.right)
			}
		}
		walk(root)
	}
}

// ExpectedFullSortCost is the paper's plan cost model:
// Σ_v |I_v| · (1 − Π_{q: v⤳q} (1 − sr_q)) over merge operators — the
// worst-case (full sort) number of operator invocations expected per round.
func (p *Plan) ExpectedFullSortCost() float64 {
	total := 0.0
	for _, n := range p.Nodes {
		if n.leaf {
			continue
		}
		probNone := 1.0
		p.usedBy[n.ID].ForEach(func(q int) bool {
			probNone *= 1 - p.rates[q]
			return true
		})
		if !p.usedBy[n.ID].IsEmpty() {
			total += float64(n.Size()) * (1 - probNone)
		}
	}
	return total
}

// ExpectedBeyondFirst computes the paper's savings factor: the expected
// number of queries (with the given occurrence rates) that occur beyond the
// first occurring one,
// Σ_i [Π_{j<i}(1−sr_j)] · sr_i · Σ_{j>i} sr_j,
// which equals E[N] − P(N ≥ 1) for N the number of occurring queries.
func ExpectedBeyondFirst(rates []float64) float64 {
	total := 0.0
	noneBefore := 1.0
	suffix := 0.0
	for _, r := range rates {
		suffix += r
	}
	for _, r := range rates {
		suffix -= r
		total += noneBefore * r * suffix
		noneBefore *= 1 - r
	}
	return total
}

// BeginRound resets every operator and installs the round's bids; bids must
// have length NumAdvertisers.
func (p *Plan) BeginRound(bids []float64) {
	if len(bids) != p.NumAdvertisers {
		panic(fmt.Sprintf("sharedsort: %d bids for %d advertisers", len(bids), p.NumAdvertisers))
	}
	for _, n := range p.Nodes {
		n.reset()
		if n.leaf {
			n.leafItem.Bid = bids[n.leafItem.Advertiser]
		}
	}
}

// RoundPulls sums operator invocations since the last BeginRound.
func (p *Plan) RoundPulls() int {
	t := 0
	for _, n := range p.Nodes {
		if !n.leaf {
			t += n.Pulls
		}
	}
	return t
}

// Stream returns a cursor over phrase q's descending-bid stream (an
// independent position per caller; the underlying nodes cache and share all
// produced prefixes). It returns nil if no advertiser is interested in q.
func (p *Plan) Stream(q int) *Stream {
	s := new(Stream)
	if !p.OpenStream(s, q) {
		return nil
	}
	return s
}

// OpenStream points s at the start of phrase q's stream, so one Stream
// value can serve every phrase of every round. It reports false, leaving s
// unchanged, if no advertiser is interested in q.
func (p *Plan) OpenStream(s *Stream, q int) bool {
	if p.Roots[q] == nil {
		return false
	}
	*s = Stream{node: p.Roots[q]}
	return true
}

// Stream is a per-consumer cursor over a phrase's sorted stream. It
// implements the threshold algorithm's Source interface.
type Stream struct {
	node *Node
	pos  int
}

// Next yields the next (advertiser, bid) in descending bid order.
func (s *Stream) Next() (int, float64, bool) {
	it, ok := s.node.Get(s.pos)
	if !ok {
		return 0, 0, false
	}
	s.pos++
	return it.Advertiser, it.Bid, true
}
