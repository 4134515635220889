// Package plan implements the paper's abstract shared-aggregation framework
// (Section II-C): ⊕-expressions over variables, A-plans (DAGs of binary
// aggregations), the total/extra/expected cost model, plan execution, an
// exact optimal planner for small instances, the set-cover reductions behind
// Theorems 2 and 3, and the per-algebraic-structure planners that back the
// Figure-5 complexity table.
//
// Under axioms A1–A4 (semilattice with identity) Lemma 1 says two
// ⊕-expressions are A-equivalent iff their variable sets coincide, so this
// package identifies expressions with bitsets of variables. The syntactic
// (magma) representation needed when associativity or commutativity is
// absent lives in expr.go.
package plan

import (
	"fmt"
	"math/rand"

	"sharedwd/internal/bitset"
)

// Query is one aggregate query: the set of variables (advertisers) it
// aggregates and its search rate sr_q — the probability that the query's bid
// phrase occurs in a given round (an independent Bernoulli trial, per the
// paper's model).
type Query struct {
	Vars bitset.Set
	Rate float64
}

// Instance is a shared-aggregation problem: n variables and a set of
// aggregate queries over them.
type Instance struct {
	NumVars int
	Queries []Query
}

// NewInstance builds an instance from query variable sets, validating that
// rates are probabilities and variable sets fit the capacity. Empty query
// sets are rejected; duplicate (A-equivalent) queries are rejected — the
// paper assumes duplicates are removed upfront.
func NewInstance(numVars int, queries []Query) (*Instance, error) {
	if numVars <= 0 {
		return nil, fmt.Errorf("plan: instance needs at least one variable, got %d", numVars)
	}
	seen := make(map[string]int, len(queries))
	for i, q := range queries {
		if q.Vars.Cap() != numVars {
			return nil, fmt.Errorf("plan: query %d has capacity %d, want %d", i, q.Vars.Cap(), numVars)
		}
		if q.Vars.IsEmpty() {
			return nil, fmt.Errorf("plan: query %d is empty", i)
		}
		if q.Rate < 0 || q.Rate > 1 {
			return nil, fmt.Errorf("plan: query %d has rate %v outside [0,1]", i, q.Rate)
		}
		if j, dup := seen[q.Vars.Key()]; dup {
			return nil, fmt.Errorf("plan: queries %d and %d are A-equivalent (%v)", j, i, q.Vars)
		}
		seen[q.Vars.Key()] = i
	}
	return &Instance{NumVars: numVars, Queries: queries}, nil
}

// MustInstance is NewInstance that panics on error; for tests and fixed
// experiment setups.
func MustInstance(numVars int, queries []Query) *Instance {
	inst, err := NewInstance(numVars, queries)
	if err != nil {
		panic(err)
	}
	return inst
}

// UniformRates returns a copy of the instance with every query's rate set to
// sr. Used by the Figure-4 sweep.
func (in *Instance) UniformRates(sr float64) *Instance {
	qs := make([]Query, len(in.Queries))
	for i, q := range in.Queries {
		qs[i] = Query{Vars: q.Vars, Rate: sr}
	}
	return &Instance{NumVars: in.NumVars, Queries: qs}
}

// TotalQueryVars returns Σ_q |X_q|, the bound the paper uses for the greedy
// heuristic's step count.
func (in *Instance) TotalQueryVars() int {
	t := 0
	for _, q := range in.Queries {
		t += q.Vars.Count()
	}
	return t
}

// RandomCoinFlipInstance reproduces the construction behind Figure 4:
// numQueries top-k queries over numVars advertisers, where each advertiser
// joins each query by an independent fair coin flip; duplicate and empty
// queries are re-flipped. All rates are set to rate.
//
// The Figure-4 configuration is numVars=20, numQueries=10.
func RandomCoinFlipInstance(rng *rand.Rand, numVars, numQueries int, rate float64) *Instance {
	queries := make([]Query, 0, numQueries)
	seen := make(map[string]bool)
	for len(queries) < numQueries {
		v := bitset.New(numVars)
		for i := 0; i < numVars; i++ {
			if rng.Intn(2) == 0 {
				v.Add(i)
			}
		}
		if v.IsEmpty() || seen[v.Key()] {
			continue
		}
		seen[v.Key()] = true
		queries = append(queries, Query{Vars: v, Rate: rate})
	}
	return MustInstance(numVars, queries)
}

// RandomOverlapInstance generates an instance with topic structure: vars are
// partitioned into numTopics topics, and each query draws its variables from
// 1–2 topics plus a small random sprinkle. This mimics the paper's
// shoe-store motivation (general stores shared across phrases, specialists
// not) and drives the larger benchmark sweeps. Rates are drawn uniformly
// from [rateLo, rateHi].
func RandomOverlapInstance(rng *rand.Rand, numVars, numQueries, numTopics int, rateLo, rateHi float64) *Instance {
	if numTopics <= 0 {
		panic("plan: numTopics must be positive")
	}
	topicOf := make([]int, numVars)
	for i := range topicOf {
		topicOf[i] = rng.Intn(numTopics)
	}
	queries := make([]Query, 0, numQueries)
	seen := make(map[string]bool)
	for attempts := 0; len(queries) < numQueries && attempts < numQueries*100; attempts++ {
		v := bitset.New(numVars)
		t1 := rng.Intn(numTopics)
		t2 := t1
		if rng.Intn(2) == 0 {
			t2 = rng.Intn(numTopics)
		}
		for i := 0; i < numVars; i++ {
			switch {
			case topicOf[i] == t1 || topicOf[i] == t2:
				if rng.Float64() < 0.8 {
					v.Add(i)
				}
			case rng.Float64() < 0.02:
				v.Add(i)
			}
		}
		if v.IsEmpty() || seen[v.Key()] {
			continue
		}
		seen[v.Key()] = true
		queries = append(queries, Query{Vars: v, Rate: rateLo + rng.Float64()*(rateHi-rateLo)})
	}
	return MustInstance(numVars, queries)
}
