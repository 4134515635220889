package shard

import (
	"fmt"
	"hash/fnv"

	"sharedwd/internal/plan"
	"sharedwd/internal/sharedagg"
	"sharedwd/internal/workload"
)

// Router decides which engine shard owns each bid phrase. Assign returns
// one shard in [0, shards) per phrase of the workload. Routing is computed
// once at construction (the phrase universe is fixed for a serving day), so
// implementations may take global views; they should be deterministic for
// a given workload. New rebalances assignments that leave shards empty, so
// routers need not guarantee non-emptiness themselves.
type Router interface {
	Assign(w *workload.Workload, shards int) ([]int, error)
}

// HashRouter is the stable default: FNV-1a over the normalized phrase name,
// modulo the shard count. A phrase's shard depends only on its name and the
// shard count — not on workload statistics — so assignments survive
// workload regeneration and match what an external load balancer computing
// the same hash would pick.
type HashRouter struct{}

// Assign routes each phrase by name hash.
func (HashRouter) Assign(w *workload.Workload, shards int) ([]int, error) {
	assign := make([]int, len(w.PhraseNames))
	for q, name := range w.PhraseNames {
		h := fnv.New64a()
		h.Write([]byte(workload.Normalize(name)))
		assign[q] = int(h.Sum64() % uint64(shards))
	}
	return assign, nil
}

// FragmentRouter is the sharing-aware partitioner: it groups the
// workload's phrases so that phrases sharing a Section II fragment
// (advertisers with identical phrase-membership signatures) co-locate on a
// shard, balanced by expected load. Cross-shard sharing is lost by
// construction — each shard scores its own participants and runs its own
// threshold pass — so keeping fragment cliques together lets one shard
// score an advertiser once per round for all of its phrases instead of
// once per shard (see sharedagg.PartitionQueries).
type FragmentRouter struct{}

// Assign partitions phrases by fragment affinity.
func (FragmentRouter) Assign(w *workload.Workload, shards int) ([]int, error) {
	queries := make([]plan.Query, len(w.Interests))
	for q := range w.Interests {
		queries[q] = plan.Query{Vars: w.Interests[q], Rate: w.Rates[q]}
	}
	inst, err := plan.NewInstance(len(w.Advertisers), queries)
	if err != nil {
		return nil, fmt.Errorf("shard: building plan instance for fragment routing: %w", err)
	}
	return sharedagg.PartitionQueries(inst, shards), nil
}

// rebalance ensures every shard owns at least one phrase by moving the
// lowest-rate phrases off the most-populated shards into empty ones. The
// input is validated (length, range) and mutated in place.
func rebalance(assign []int, rates []float64, shards int) error {
	if len(assign) != len(rates) {
		return fmt.Errorf("shard: router assigned %d phrases, workload has %d", len(assign), len(rates))
	}
	if len(assign) < shards {
		return fmt.Errorf("shard: %d phrases cannot populate %d shards", len(assign), shards)
	}
	count := make([]int, shards)
	for q, s := range assign {
		if s < 0 || s >= shards {
			return fmt.Errorf("shard: router assigned phrase %d to shard %d of %d", q, s, shards)
		}
		count[s]++
	}
	for s := 0; s < shards; s++ {
		if count[s] > 0 {
			continue
		}
		victim := -1
		for q, d := range assign {
			if count[d] > 1 && (victim == -1 || rates[q] < rates[victim]) {
				victim = q
			}
		}
		if victim == -1 {
			return fmt.Errorf("shard: cannot populate shard %d", s)
		}
		count[assign[victim]]--
		assign[victim] = s
		count[s]++
	}
	return nil
}
