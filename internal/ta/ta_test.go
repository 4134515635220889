package ta

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"sharedwd/internal/topk"
)

// sortedSource builds a SliceSource over the ids sorted descending by val.
func sortedSource(ids []int, val func(id int) float64) *SliceSource {
	s := append([]int(nil), ids...)
	sort.Slice(s, func(a, b int) bool {
		va, vb := val(s[a]), val(s[b])
		if va != vb {
			return va > vb
		}
		return s[a] < s[b]
	})
	vals := make([]float64, len(s))
	for i, id := range s {
		vals[i] = val(id)
	}
	return &SliceSource{IDs: s, Vals: vals}
}

func TestSliceSource(t *testing.T) {
	s := &SliceSource{IDs: []int{3, 1}, Vals: []float64{9, 2}}
	id, v, ok := s.Next()
	if !ok || id != 3 || v != 9 {
		t.Fatalf("Next = %d %v %v", id, v, ok)
	}
	s.Next()
	if _, _, ok := s.Next(); ok {
		t.Fatal("exhausted source should report !ok")
	}
}

func TestTopKBasic(t *testing.T) {
	ids := []int{0, 1, 2, 3}
	bid := func(id int) float64 { return []float64{10, 8, 6, 1}[id] }
	qual := func(id int) float64 { return []float64{0.1, 0.9, 0.5, 1.0}[id] }
	score := func(id int) float64 { return bid(id) * qual(id) }
	best, st := TopK(2, sortedSource(ids, bid), sortedSource(ids, qual), score)
	// Scores: 1.0, 7.2, 3.0, 1.0 → top2 = ids 1, 2.
	if got := best.IDs(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("TopK IDs = %v, want [1 2]", got)
	}
	if st.SortedAccesses == 0 || st.Stages == 0 || st.RandomAccesses == 0 {
		t.Fatalf("stats not recorded: %+v", st)
	}
}

func TestTopKEarlyTermination(t *testing.T) {
	// One advertiser dominates both lists: TA should stop after ~k stages,
	// far before scanning all n.
	n := 1000
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	bid := func(id int) float64 { return float64(n - id) }
	qual := func(id int) float64 { return 1.0 / (1.0 + float64(id)) }
	score := func(id int) float64 { return bid(id) * qual(id) }
	best, st := TopK(3, sortedSource(ids, bid), sortedSource(ids, qual), score)
	if best.Len() != 3 {
		t.Fatalf("Len = %d", best.Len())
	}
	if st.SortedAccesses >= n {
		t.Fatalf("TA did not terminate early: %d sorted accesses for n=%d", st.SortedAccesses, n)
	}
}

func TestTopKFewerThanK(t *testing.T) {
	ids := []int{0, 1}
	f := func(id int) float64 { return float64(id + 1) }
	best, _ := TopK(5, sortedSource(ids, f), sortedSource(ids, f), func(id int) float64 { return f(id) * f(id) })
	if best.Len() != 2 {
		t.Fatalf("Len = %d, want 2", best.Len())
	}
}

func TestTopKEmpty(t *testing.T) {
	best, st := TopK(3, &SliceSource{}, &SliceSource{}, func(int) float64 { return 0 })
	if best.Len() != 0 {
		t.Fatal("empty input should yield empty result")
	}
	if st.SortedAccesses != 0 {
		t.Fatalf("SortedAccesses = %d", st.SortedAccesses)
	}
}

// TestQuickMatchesExhaustive: TA returns exactly the top-k by b·c on random
// inputs, and never does more than 2n sorted accesses.
func TestQuickMatchesExhaustive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		k := 1 + rng.Intn(8)
		bids := make([]float64, n)
		quals := make([]float64, n)
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
			bids[i] = rng.Float64() * 10
			quals[i] = rng.Float64()
		}
		score := func(id int) float64 { return bids[id] * quals[id] }
		got, st := TopK(k, sortedSource(ids, func(id int) float64 { return bids[id] }),
			sortedSource(ids, func(id int) float64 { return quals[id] }), score)

		want := topk.New(k)
		for _, id := range ids {
			want.Push(topk.Entry{ID: id, Score: score(id)})
		}
		return got.Equal(want) && st.SortedAccesses <= 2*n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestScratchMatchesTopK: one Scratch reused across calls of varying k and
// universe size, through an epoch wrap, returns what a fresh TopK returns,
// with the same work counts. Sources are re-aimed with Reset.
func TestScratchMatchesTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s Scratch
	var byBid, byQual SliceSource
	for call := 0; call < 400; call++ {
		if call == 200 {
			s.epoch = ^uint32(0) // the next call wraps and must clear stale stamps
		}
		n := 1 + rng.Intn(60)
		k := 1 + rng.Intn(6)
		bids := make([]float64, n)
		quals := make([]float64, n)
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
			bids[i] = float64(rng.Intn(5)) // ties exercise the seen set
			quals[i] = rng.Float64()
		}
		score := func(id int) float64 { return bids[id] * quals[id] }
		bs := sortedSource(ids, func(id int) float64 { return bids[id] })
		qs := sortedSource(ids, func(id int) float64 { return quals[id] })
		want, wantSt := TopK(k, &SliceSource{IDs: bs.IDs, Vals: bs.Vals}, &SliceSource{IDs: qs.IDs, Vals: qs.Vals}, score)
		byBid.Reset(bs.IDs, bs.Vals)
		byQual.Reset(qs.IDs, qs.Vals)
		got, gotSt := s.TopK(k, &byBid, &byQual, score)
		if !got.Equal(want) || gotSt != wantSt {
			t.Fatalf("call %d (n=%d k=%d): scratch %v %+v, fresh %v %+v", call, n, k, got, gotSt, want, wantSt)
		}
	}
}

// TestInstanceOptimalityShape: with correlated lists (same order), TA stops
// after about k stages; with anti-correlated lists it may need more — but on
// correlated inputs sorted accesses must be O(k), independent of n.
func TestInstanceOptimalityShape(t *testing.T) {
	for _, n := range []int{100, 1000, 10000} {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		val := func(id int) float64 { return float64(n - id) }
		_, st := TopK(5, sortedSource(ids, val), sortedSource(ids, val),
			func(id int) float64 { return val(id) * val(id) })
		if st.SortedAccesses > 20 {
			t.Fatalf("n=%d: %d sorted accesses; should be O(k) on correlated lists", n, st.SortedAccesses)
		}
	}
}

func BenchmarkTopK(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 10000
	ids := make([]int, n)
	bids := make([]float64, n)
	quals := make([]float64, n)
	for i := range ids {
		ids[i] = i
		bids[i] = rng.Float64() * 10
		quals[i] = rng.Float64()
	}
	bySrc := sortedSource(ids, func(id int) float64 { return bids[id] })
	byQ := sortedSource(ids, func(id int) float64 { return quals[id] })
	score := func(id int) float64 { return bids[id] * quals[id] }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bb, qq := *bySrc, *byQ // reset positions
		TopK(10, &bb, &qq, score)
	}
}
