package core

import (
	"cmp"
	"fmt"
	"slices"

	"sharedwd/internal/sharedsort"
	"sharedwd/internal/ta"
	"sharedwd/internal/workload"
)

// sortedResolver is phase 3 for a per-phrase-quality workload, the Section
// III regime: c_i^q differs per phrase, so top-k aggregates of b·c cannot be
// shared across phrases, only the bid orderings can. Each occurring phrase
// runs the threshold algorithm over two sorted access paths: the shared
// merge-sort forest supplies its members by descending round bid (a prefix
// shared by several phrases is merged once per round), and a precomputed
// static order supplies them by descending c_i^q (the paper's footnote:
// quality factors change rarely, so their orderings are precomputed).
type sortedResolver struct {
	plan *sharedsort.Plan
	// byQuality[q] is phrase q's members by descending c_i^q, ties by
	// ascending ID; qualVals[q] holds the matching factors.
	byQuality [][]int
	qualVals  [][]float64
	// stream, qual and ta are reused for every phrase of every round, so
	// the resolver allocates nothing once ta's scratch has grown.
	stream sharedsort.Stream
	qual   ta.SliceSource
	ta     ta.Scratch
}

// newSortedResolver builds the shared merge-sort plan from the interest
// sets and search rates, and every phrase's quality order.
func newSortedResolver(w *workload.Workload) (*sortedResolver, error) {
	p, err := sharedsort.Build(len(w.Advertisers), w.Interests, w.Rates, sharedsort.Options{})
	if err != nil {
		return nil, fmt.Errorf("core: building shared sort plan: %w", err)
	}
	s := &sortedResolver{
		plan:      p,
		byQuality: make([][]int, len(w.Interests)),
		qualVals:  make([][]float64, len(w.Interests)),
	}
	for q := range w.Interests {
		ids := w.Interests[q].Indices()
		slices.SortFunc(ids, func(a, b int) int {
			return cmp.Or(cmp.Compare(w.QualityFor(q, b), w.QualityFor(q, a)), a-b)
		})
		vals := make([]float64, len(ids))
		for i, id := range ids {
			vals[i] = w.QualityFor(q, id)
		}
		s.byQuality[q], s.qualVals[q] = ids, vals
	}
	return s, nil
}

// resolveSorted writes every occurring phrase's top-(k+1) run by round bid
// times c_i^q, dropping entries that do not score above 0. The forest reads
// the whole round-bid slab but pulls only leaves below an occurring phrase's
// root, all of them participants, so it never reads a stale entry.
func (e *Engine) resolveSorted(occurring []bool) {
	s := e.sorted
	k1 := len(e.w.SlotFactors) + 1
	s.plan.BeginRound(e.scr.roundBid)
	for q, occ := range occurring {
		if !occ {
			continue
		}
		n := 0
		if s.plan.OpenStream(&s.stream, q) {
			s.qual.Reset(s.byQuality[q], s.qualVals[q])
			score := func(id int) float64 { return e.scr.roundBid[id] * e.w.QualityFor(q, id) }
			top, st := s.ta.TopK(k1, &s.stream, &s.qual, score)
			e.stats.SortedAccesses += st.SortedAccesses
			run := e.scr.runs[q*k1 : (q+1)*k1]
			for ; n < top.Len(); n++ {
				entry := top.At(n)
				if entry.Score <= 0 {
					break
				}
				run[n] = entry
			}
		}
		e.scr.runLen[q] = int32(n)
	}
	e.stats.MergePulls += s.plan.RoundPulls()
}
