package shard

import (
	"cmp"
	"slices"

	"sharedwd/internal/bitset"
	"sharedwd/internal/workload"
)

// assign fixes each phrase's shard: the Section II fragment partition. A
// shard boundary cuts exactly the sharing the paper saves — each shard
// scores its own participants and runs its own threshold pass — so phrases
// sharing fragments (advertisers with identical phrase membership) should
// co-locate, and one shard scores their common advertisers once per round.
//
// Phrases are placed greedily in descending weight rate·|X_q| (index breaks
// ties). A shard is eligible while its load Σ weight stays within one
// average phrase weight of the lightest shard; among eligible shards the
// phrase goes to the one already holding the most of its fragments'
// advertisers, then the lighter, then the lower index. A fragment's
// advertisers all belong to the same phrases, so the fragment is on shard s
// exactly when its advertisers lie in U_s, the union of s's interest sets,
// and that affinity is |X_q ∩ U_s|. Afterwards each empty shard takes the
// lightest phrase of a shard holding at least two; with fewer phrases than
// shards some stay empty and workload.Partition refuses the assignment.
func assign(w *workload.Workload, shards int) []int {
	m := len(w.Interests)
	shardOf := make([]int, m)
	if shards <= 1 {
		return shardOf
	}
	weight := make([]float64, m)
	order := make([]int, m)
	total := 0.0
	for q, x := range w.Interests {
		order[q] = q
		weight[q] = w.Rates[q] * float64(x.Count())
		total += weight[q]
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(weight[b], weight[a]); c != 0 {
			return c
		}
		return a - b
	})

	slack := total / float64(m)
	load := make([]float64, shards)
	count := make([]int, shards)
	union := bitset.NewBatch(len(w.Advertisers), shards)
	for _, q := range order {
		minLoad := slices.Min(load)
		best, bestAffinity := -1, -1
		for s := range load {
			if load[s] > minLoad+slack {
				continue
			}
			affinity := w.Interests[q].IntersectCount(union[s])
			if affinity > bestAffinity || (affinity == bestAffinity && load[s] < load[best]) {
				best, bestAffinity = s, affinity
			}
		}
		shardOf[q] = best
		load[best] += weight[q]
		count[best]++
		union[best].UnionInPlace(w.Interests[q])
	}

	for s := range count {
		if count[s] > 0 {
			continue
		}
		victim := -1
		for _, q := range order {
			if count[shardOf[q]] > 1 && (victim == -1 || weight[q] < weight[victim]) {
				victim = q
			}
		}
		if victim == -1 {
			break
		}
		count[shardOf[victim]]--
		shardOf[victim] = s
		count[s]++
	}
	return shardOf
}
