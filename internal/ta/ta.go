// Package ta implements the threshold algorithm of Fagin, Lotem, and Naor
// (PODS'01), which Section III-A of the paper uses to find the top-k
// advertisers by b_i·c_i^q when the advertiser-specific click-through factor
// c_i^q varies per bid phrase.
//
// The algorithm consumes two sorted access paths — advertisers by descending
// bid b_i and by descending quality factor c_i^q — performing random access
// to complete each newly seen advertiser's score, and stops as soon as the
// k-th best score seen is at least the threshold b̄·c̄ formed from the last
// values read on each path. It is instance optimal among algorithms that
// make no wild guesses.
package ta

import (
	"sharedwd/internal/topk"
)

// Source yields (advertiser, value) pairs in descending value order. Next
// reports ok=false when exhausted.
type Source interface {
	Next() (id int, val float64, ok bool)
}

// SliceSource adapts a pre-sorted slice of (ID, Val) pairs to a Source.
type SliceSource struct {
	IDs  []int
	Vals []float64
	pos  int
}

// Reset points the source at the start of a new pair of slices, so one
// SliceSource value can serve many calls.
func (s *SliceSource) Reset(ids []int, vals []float64) {
	s.IDs, s.Vals, s.pos = ids, vals, 0
}

// Next yields the next pair.
func (s *SliceSource) Next() (int, float64, bool) {
	if s.pos >= len(s.IDs) {
		return 0, 0, false
	}
	i := s.pos
	s.pos++
	return s.IDs[i], s.Vals[i], true
}

// Stats reports the work the threshold algorithm performed.
type Stats struct {
	// SortedAccesses counts Next calls that returned an item, across both
	// lists. This is the quantity shared sorting reduces.
	SortedAccesses int
	// RandomAccesses counts score completions for newly seen advertisers.
	RandomAccesses int
	// Stages counts threshold-check rounds (one pull from each list).
	Stages int
}

// TopK finds the k advertisers maximizing score(id) using the threshold
// algorithm over the two descending-sorted access paths. byBid must be
// sorted by descending bid, byQuality by descending quality; score(id) must
// equal bid(id)·quality(id) for consistency of the threshold bound. Both
// paths must enumerate the same advertiser set. The returned list is the
// caller's; Scratch.TopK runs the same algorithm without allocating.
func TopK(k int, byBid, byQuality Source, score func(id int) float64) (*topk.List, Stats) {
	var s Scratch
	return s.TopK(k, byBid, byQuality, score)
}

// Scratch is reusable state for the threshold algorithm: the set of
// advertisers already seen, stamped with a per-call epoch so it is never
// cleared, and the result list. Its zero value is ready to use; once both
// have grown to the largest ID and k a caller passes, a call allocates
// nothing. A Scratch is not safe for concurrent use.
type Scratch struct {
	seen  []uint32 // seen[id] == epoch: id was seen in the current call
	epoch uint32
	best  *topk.List
}

// TopK is the package-level TopK over the scratch state. The returned list
// belongs to s and is valid until s's next call.
func (s *Scratch) TopK(k int, byBid, byQuality Source, score func(id int) float64) (*topk.List, Stats) {
	var st Stats
	if s.best == nil || s.best.K() != k {
		s.best = topk.New(k)
	}
	best := s.best
	best.Reset()
	if s.epoch++; s.epoch == 0 { // wrapped: old stamps could collide
		clear(s.seen)
		s.epoch = 1
	}

	lastBid, lastQual := 0.0, 0.0
	bidOK, qualOK := true, true
	for bidOK || qualOK {
		st.Stages++
		if bidOK {
			id, v, ok := byBid.Next()
			if ok {
				st.SortedAccesses++
				lastBid = v
				s.observe(id, score, &st)
			} else {
				bidOK = false
			}
		}
		if qualOK {
			id, v, ok := byQuality.Next()
			if ok {
				st.SortedAccesses++
				lastQual = v
				s.observe(id, score, &st)
			} else {
				qualOK = false
			}
		}
		// Threshold: no unseen advertiser can beat lastBid·lastQual. Valid
		// once both lists have produced at least one value.
		if st.SortedAccesses < 2 {
			continue
		}
		if best.Len() == k {
			if min, ok := best.Min(); ok && min.Score >= lastBid*lastQual {
				break
			}
		}
	}
	return best, st
}

// observe completes a newly seen advertiser's score by random access and
// offers it to the result list.
func (s *Scratch) observe(id int, score func(id int) float64, st *Stats) {
	if id >= len(s.seen) {
		s.seen = append(s.seen, make([]uint32, id+1-len(s.seen))...)
	}
	if s.seen[id] == s.epoch {
		return
	}
	s.seen[id] = s.epoch
	st.RandomAccesses++
	s.best.Push(topk.Entry{ID: id, Score: score(id)})
}
