package sharedsort

import (
	"math/rand"
	"testing"

	"sharedwd/internal/bitset"
)

// handBuild constructs a tiny two-level merge tree by hand:
//
//	  w
//	 / \
//	u   v     u = merge(leaf0, leaf1), v = merge(leaf2, leaf3)
func handBuild() (leaves [4]*Node, u, v, w *Node) {
	mk := func(id, adv int) *Node {
		return &Node{
			ID:          id,
			Advertisers: bitset.FromIndices(4, adv),
			Phrases:     bitset.New(1),
			leaf:        true,
			leafItem:    Item{Advertiser: adv},
		}
	}
	for i := range leaves {
		leaves[i] = mk(i, i)
	}
	u = &Node{ID: 4, Advertisers: bitset.FromIndices(4, 0, 1), Phrases: bitset.New(1), left: leaves[0], right: leaves[1]}
	v = &Node{ID: 5, Advertisers: bitset.FromIndices(4, 2, 3), Phrases: bitset.New(1), left: leaves[2], right: leaves[3]}
	w = &Node{ID: 6, Advertisers: bitset.FromIndices(4, 0, 1, 2, 3), Phrases: bitset.New(1), left: u, right: v}
	return
}

func setBids(leaves [4]*Node, bids [4]float64) {
	for i, l := range leaves {
		l.reset()
		l.leafItem.Bid = bids[i]
	}
}

func TestNodeLazyRegisters(t *testing.T) {
	leaves, u, v, w := handBuild()
	setBids(leaves, [4]float64{3, 7, 5, 1})
	u.reset()
	v.reset()
	w.reset()

	// Pull just the maximum: w fills both registers (one pull into each
	// child), emits the larger; the children each produced exactly one
	// item, not their full streams.
	it, ok := w.Get(0)
	if !ok || it.Advertiser != 1 || it.Bid != 7 {
		t.Fatalf("top = %+v %v", it, ok)
	}
	if u.Emitted() != 1 || v.Emitted() != 1 {
		t.Fatalf("children emitted %d/%d, want 1/1 (lazy)", u.Emitted(), v.Emitted())
	}
	// Next item (5 from v): w refills its emptied left register — one more
	// pull into u — compares 3 < 5, and emits from the held right register.
	// v needs no new production.
	it, _ = w.Get(1)
	if it.Advertiser != 2 || it.Bid != 5 {
		t.Fatalf("second = %+v", it)
	}
	if u.Emitted() != 2 || v.Emitted() != 1 {
		t.Fatalf("children emitted %d/%d, want 2/1 (register discipline)", u.Emitted(), v.Emitted())
	}
}

func TestNodeFullDrainAndExhaustion(t *testing.T) {
	leaves, u, v, w := handBuild()
	setBids(leaves, [4]float64{3, 7, 5, 1})
	u.reset()
	v.reset()
	w.reset()
	var got []int
	for i := 0; ; i++ {
		it, ok := w.Get(i)
		if !ok {
			break
		}
		got = append(got, it.Advertiser)
	}
	want := []int{1, 2, 0, 3}
	if len(got) != len(want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drained %v, want %v", got, want)
		}
	}
	// Exhausted stream answers consistently on re-query.
	if _, ok := w.Get(10); ok {
		t.Fatal("Get past exhaustion should report !ok")
	}
	if it, ok := w.Get(2); !ok || it.Advertiser != 0 {
		t.Fatal("cached items must remain addressable after exhaustion")
	}
}

func TestNodeCacheSharedBetweenConsumers(t *testing.T) {
	leaves, u, v, w := handBuild()
	setBids(leaves, [4]float64{3, 7, 5, 1})
	u.reset()
	v.reset()
	w.reset()
	// Consumer A drains fully; consumer B then replays from the cache
	// without any further production work.
	for i := 0; ; i++ {
		if _, ok := w.Get(i); !ok {
			break
		}
	}
	pullsAfterA := w.Pulls + u.Pulls + v.Pulls
	for i := 0; i < 4; i++ {
		if _, ok := w.Get(i); !ok {
			t.Fatal("cache replay failed")
		}
	}
	if got := w.Pulls + u.Pulls + v.Pulls; got != pullsAfterA {
		t.Fatalf("replay performed %d extra pulls", got-pullsAfterA)
	}
}

func TestNodeResetBetweenRounds(t *testing.T) {
	leaves, u, v, w := handBuild()
	setBids(leaves, [4]float64{3, 7, 5, 1})
	u.reset()
	v.reset()
	w.reset()
	w.Get(0)
	// New round with different bids: resets clear registers and caches.
	setBids(leaves, [4]float64{9, 1, 2, 8})
	u.reset()
	v.reset()
	w.reset()
	it, ok := w.Get(0)
	if !ok || it.Advertiser != 0 || it.Bid != 9 {
		t.Fatalf("after reset top = %+v", it)
	}
	if w.Pulls != 1 {
		t.Fatalf("Pulls = %d after reset+one pull", w.Pulls)
	}
}

func TestTieBreakDeterministic(t *testing.T) {
	leaves, u, v, w := handBuild()
	setBids(leaves, [4]float64{5, 5, 5, 5})
	u.reset()
	v.reset()
	w.reset()
	var got []int
	for i := 0; i < 4; i++ {
		it, _ := w.Get(i)
		got = append(got, it.Advertiser)
	}
	for i, adv := range []int{0, 1, 2, 3} {
		if got[i] != adv {
			t.Fatalf("tie order = %v, want ascending advertiser", got)
		}
	}
}

func TestNodeString(t *testing.T) {
	leaves, _, _, w := handBuild()
	if s := leaves[0].String(); s == "" || s[:4] != "leaf" {
		t.Fatalf("leaf String = %q", s)
	}
	if s := w.String(); s[:5] != "merge" {
		t.Fatalf("merge String = %q", s)
	}
}

// TestRoundGetsZeroAlloc pins the merge pull as allocation-free: once every
// node's emitted cache has reached its size in a warm-up round, a full round
// of Gets — every phrase's stream drained through the shared forest —
// allocates nothing.
func TestRoundGetsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	const n, phrases = 120, 10
	rng := rand.New(rand.NewSource(5))
	interests := make([]bitset.Set, phrases)
	rates := make([]float64, phrases)
	for q := range interests {
		var ids []int
		for a := 0; a < n; a++ {
			if rng.Intn(3) == 0 {
				ids = append(ids, a)
			}
		}
		interests[q] = bitset.FromIndices(n, ids...)
		rates[q] = 0.5
	}
	p, err := Build(n, interests, rates, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bids := make([]float64, n)
	round := func() {
		for a := range bids {
			bids[a] = rng.Float64()
		}
		p.BeginRound(bids)
		for _, root := range p.Roots {
			if root == nil {
				continue
			}
			for i := 0; ; i++ {
				if _, ok := root.Get(i); !ok {
					break
				}
			}
		}
	}
	round() // warm-up: grows every emitted cache to its full stream
	if got := testing.AllocsPerRun(20, round); got != 0 {
		t.Fatalf("a round of Gets allocates %.1f times, want 0", got)
	}
}
