// Package sharedsort implements Section III of the paper: shared merge-sort
// across bid phrases. Each non-leaf node is an on-demand merge operator with
// a left and a right register; it emits the larger register upstream and
// caches everything it has emitted, so when the node is shared between the
// merge-sort trees of several phrases, each prefix of its output is sorted
// at most once per round regardless of how many phrases consume it.
//
// The plan builder (plan.go) follows the paper's bottom-up greedy heuristic:
// repeatedly merge the two nodes u, v with Q_u ∩ Q_v ≠ ∅, I_u ∩ I_v = ∅ and
// |I_u| = |I_v| that maximize the expected savings
// |I_w| · E[#queries in Q_w occurring beyond the first].
package sharedsort

import (
	"fmt"

	"sharedwd/internal/bitset"
)

// Item is one element of a merge-sort stream: an advertiser and its current
// bid. Streams are ordered by descending bid, ties broken by ascending
// advertiser, so every run is deterministic.
type Item struct {
	Advertiser int
	Bid        float64
}

// less orders items descending by bid, ascending by advertiser on ties.
func (a Item) less(b Item) bool {
	if a.Bid != b.Bid {
		return a.Bid > b.Bid
	}
	return a.Advertiser < b.Advertiser
}

// Node is an on-demand merge operator (or an advertiser leaf). Consumers
// address its output by index via Get; the node computes lazily and caches
// emitted items, which is what makes sharing across phrase trees free.
type Node struct {
	ID int
	// Advertisers is I_v: the advertisers below this node.
	Advertisers bitset.Set
	// Phrases is Q_v: the phrases whose merge-sort tree uses this node.
	Phrases bitset.Set

	left, right *Node
	// Registers: a pulled-but-unemitted item from each child, held by value
	// (a pointer to the pulled item would escape to the heap on every pull).
	leftReg, rightReg   Item
	hasLeft, hasRight   bool
	leftNext, rightNext int // cursor into each child's emitted cache

	leaf     bool
	leafItem Item
	leafDone bool

	emitted   []Item
	exhausted bool

	// Pulls counts produce invocations this round — the operator-invocation
	// cost the paper's full-sort cost model bounds by |I_v|.
	Pulls int
}

// Get returns the i-th largest item of this node's stream (0-based),
// producing lazily as needed. ok=false means the stream has fewer than i+1
// items.
func (n *Node) Get(i int) (Item, bool) {
	for len(n.emitted) <= i && !n.exhausted {
		n.produce()
	}
	if i < len(n.emitted) {
		return n.emitted[i], true
	}
	return Item{}, false
}

// Emitted returns how many items the node has produced so far this round.
func (n *Node) Emitted() int { return len(n.emitted) }

// Size returns |I_v|.
func (n *Node) Size() int { return n.Advertisers.Count() }

// produce advances the merge by one output item (or discovers exhaustion).
func (n *Node) produce() {
	n.Pulls++
	if n.leaf {
		if n.leafDone {
			n.exhausted = true
			return
		}
		n.leafDone = true
		n.emitted = append(n.emitted, n.leafItem)
		return
	}
	// Fill empty registers from the children's cached streams.
	if !n.hasLeft {
		if n.leftReg, n.hasLeft = n.left.Get(n.leftNext); n.hasLeft {
			n.leftNext++
		}
	}
	if !n.hasRight {
		if n.rightReg, n.hasRight = n.right.Get(n.rightNext); n.hasRight {
			n.rightNext++
		}
	}
	switch {
	case !n.hasLeft && !n.hasRight:
		n.exhausted = true
	case !n.hasRight || (n.hasLeft && n.leftReg.less(n.rightReg)):
		n.emitted = append(n.emitted, n.leftReg)
		n.hasLeft = false
	default:
		n.emitted = append(n.emitted, n.rightReg)
		n.hasRight = false
	}
}

// reset clears the node's per-round state (registers, cache, counters).
func (n *Node) reset() {
	n.hasLeft, n.hasRight = false, false
	n.leftNext, n.rightNext = 0, 0
	n.leafDone = false
	n.emitted = n.emitted[:0]
	n.exhausted = false
	n.Pulls = 0
}

func (n *Node) String() string {
	kind := "merge"
	if n.leaf {
		kind = "leaf"
	}
	return fmt.Sprintf("%s#%d I=%v Q=%v", kind, n.ID, n.Advertisers, n.Phrases)
}
