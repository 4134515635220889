package workload

import (
	"fmt"
	"math/rand"

	"sharedwd/internal/auction"
	"sharedwd/internal/bitset"
)

// PartitionIndex is the two-way mapping between the global bid-phrase
// universe and the per-shard sub-workloads a Partition call produced.
type PartitionIndex struct {
	// Shards is the number of shards.
	Shards int
	// ShardOf[q] is the shard global phrase q was assigned to.
	ShardOf []int
	// LocalID[q] is phrase q's index within its shard's sub-workload.
	LocalID []int
	// GlobalID[s][l] is the global phrase behind shard s's local phrase l.
	GlobalID [][]int
}

// Partition splits a workload into per-shard sub-workloads following the
// given phrase assignment (assign[q] = shard of global phrase q). Each
// sub-workload keeps the full advertiser universe — advertiser IDs stay
// global, which is what lets shards share one budget ledger — but sees only
// its own phrases' interest sets, rates, and names. Advertiser slices are
// copied so per-shard bid walks do not race; interest sets and slot factors
// are shared read-only. Each sub-workload gets an independently seeded
// random stream derived from the parent seed and the shard index.
//
// Every shard must receive at least one phrase; workloads with per-phrase
// quality are partitioned by slicing the quality rows.
func Partition(w *Workload, assign []int, shards int) ([]*Workload, *PartitionIndex, error) {
	if shards < 1 {
		return nil, nil, fmt.Errorf("workload: partition into %d shards", shards)
	}
	if len(assign) != len(w.Interests) {
		return nil, nil, fmt.Errorf("workload: %d assignments for %d phrases", len(assign), len(w.Interests))
	}
	idx := &PartitionIndex{
		Shards:   shards,
		ShardOf:  append([]int(nil), assign...),
		LocalID:  make([]int, len(assign)),
		GlobalID: make([][]int, shards),
	}
	for q, s := range assign {
		if s < 0 || s >= shards {
			return nil, nil, fmt.Errorf("workload: phrase %d assigned to shard %d of %d", q, s, shards)
		}
		idx.LocalID[q] = len(idx.GlobalID[s])
		idx.GlobalID[s] = append(idx.GlobalID[s], q)
	}
	parts := make([]*Workload, shards)
	for s := 0; s < shards; s++ {
		globals := idx.GlobalID[s]
		if len(globals) == 0 {
			return nil, nil, fmt.Errorf("workload: shard %d of %d received no phrases (fewer phrases than shards)", s, shards)
		}
		sub := &Workload{
			Cfg:         w.Cfg,
			Advertisers: append([]auction.Advertiser(nil), w.Advertisers...),
			Interests:   make([]bitset.Set, len(globals)),
			Rates:       make([]float64, len(globals)),
			PhraseNames: make([]string, len(globals)),
			SlotFactors: w.SlotFactors,
		}
		sub.Cfg.NumPhrases = len(globals)
		sub.Cfg.Seed = w.Cfg.Seed + int64(s+1)*1_000_003
		sub.rng = rand.New(rand.NewSource(sub.Cfg.Seed))
		if w.Quality != nil {
			sub.Quality = make([][]float64, len(globals))
		}
		for l, q := range globals {
			sub.Interests[l] = w.Interests[q]
			sub.Rates[l] = w.Rates[q]
			sub.PhraseNames[l] = w.PhraseNames[q]
			if w.Quality != nil {
				sub.Quality[l] = w.Quality[q]
			}
		}
		parts[s] = sub
	}
	return parts, idx, nil
}

// PartitionedMatcher is the sharded front door's query mapper: the same
// two-stage normalization/rewrite/exact-match pipeline as Matcher, followed
// by the partition lookup that turns the matched global phrase into
// (shard, local phrase) routing coordinates.
//
// Thread safety: Match is safe for concurrent use once configuration
// (AddRewrite) is done, like Matcher.
type PartitionedMatcher struct {
	m   *Matcher
	idx *PartitionIndex
}

// NewPartitionedMatcher indexes the global phrase names and attaches the
// partition index produced alongside the sub-workloads.
func NewPartitionedMatcher(phrases []string, idx *PartitionIndex) *PartitionedMatcher {
	return &PartitionedMatcher{m: NewMatcher(phrases), idx: idx}
}

// AddRewrite registers a stage-one rewrite (see Matcher.AddRewrite).
func (pm *PartitionedMatcher) AddRewrite(from, to string) { pm.m.AddRewrite(from, to) }

// Match maps a raw query to its serving coordinates: the shard that owns
// the matched bid phrase, the phrase's local ID on that shard, and its
// global ID. ok=false means the query matches no bid phrase.
func (pm *PartitionedMatcher) Match(query string) (shard, local, global int, ok bool) {
	global, ok = pm.m.Match(query)
	if !ok {
		return -1, -1, -1, false
	}
	return pm.idx.ShardOf[global], pm.idx.LocalID[global], global, true
}
