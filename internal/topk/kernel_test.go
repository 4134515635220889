package topk

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randRun builds a valid run (descending sorted, unique IDs) of up to maxLen
// entries drawn from a small ID/score universe so ties and shared IDs across
// runs are frequent.
func randRun(rng *rand.Rand, maxLen, idSpan, scoreSpan int) []Entry {
	l := New(maxLen)
	n := rng.Intn(maxLen + 1)
	for i := 0; i < n; i++ {
		l.Push(Entry{ID: rng.Intn(idSpan), Score: float64(rng.Intn(scoreSpan))})
	}
	return l.Entries()
}

// checkRun fails the test if run violates the List invariant: strictly
// descending by Entry.Less with unique IDs.
func checkRun(t *testing.T, label string, run []Entry) {
	t.Helper()
	seen := map[int]bool{}
	for i, e := range run {
		if seen[e.ID] {
			t.Fatalf("%s: duplicate ID %d in %v", label, e.ID, run)
		}
		seen[e.ID] = true
		if i > 0 && !run[i-1].Less(e) {
			t.Fatalf("%s: not descending at %d in %v", label, i, run)
		}
	}
}

// runFromList converts a run into a *List for reference comparison.
func listFromRun(k int, run []Entry) *List {
	l := New(k)
	for _, e := range run {
		l.Push(e)
	}
	return l
}

// equalRuns compares a kernel-produced run with the reference list.
func equalRuns(run []Entry, l *List) bool {
	if len(run) != l.Len() {
		return false
	}
	for i, e := range run {
		if l.At(i) != e {
			return false
		}
	}
	return true
}

// TestPushRunMatchesListPush drives PushRun and List.Push with the same
// random entry stream — including duplicate IDs with improved and worsened
// scores, exact ties, and k=1 — and requires identical runs at every step.
func TestPushRunMatchesListPush(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		k := 1 + rng.Intn(8)
		ref := New(k)
		run := make([]Entry, k)
		n := 0
		for step := 0; step < 40; step++ {
			e := Entry{ID: rng.Intn(10), Score: float64(rng.Intn(6))}
			ref.Push(e)
			n = PushRun(run, n, k, e)
			if !equalRuns(run[:n], ref) {
				t.Fatalf("trial %d step %d k=%d: push %+v gave %v, want %v",
					trial, step, k, e, run[:n], ref)
			}
			checkRun(t, "PushRun", run[:n])
		}
	}
}

// TestMergeRunsMatchesMerge is the kernel equivalence property: for random
// valid runs (ties, shared IDs, empty sides, k=1), MergeRuns must equal
// topk.Merge on the corresponding lists.
func TestMergeRunsMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dst := make([]Entry, 16)
	for trial := 0; trial < 5000; trial++ {
		k := 1 + rng.Intn(8)
		a := randRun(rng, k, 12, 5)
		b := randRun(rng, k, 12, 5)
		want := Merge(listFromRun(k, a), listFromRun(k, b))
		n := MergeRuns(dst, k, a, b)
		if !equalRuns(dst[:n], want) {
			t.Fatalf("trial %d k=%d: MergeRuns(%v, %v) = %v, want %v",
				trial, k, a, b, dst[:n], want)
		}
		checkRun(t, "MergeRuns", dst[:n])
	}
}

// TestFoldRunMatchesMerge checks the n-ary fold kernel: folding several runs
// into an accumulator must equal the left fold of topk.Merge, regardless of
// early exits.
func TestFoldRunMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 3000; trial++ {
		k := 1 + rng.Intn(8)
		ref := New(k)
		run := make([]Entry, k)
		n := 0
		for pieces := rng.Intn(5); pieces >= 0; pieces-- {
			src := randRun(rng, k, 12, 5)
			ref = Merge(ref, listFromRun(k, src))
			n = FoldRun(run, n, k, src)
			if !equalRuns(run[:n], ref) {
				t.Fatalf("trial %d k=%d: FoldRun(%v) = %v, want %v",
					trial, k, src, run[:n], ref)
			}
			checkRun(t, "FoldRun", run[:n])
		}
	}
}

// TestKernelEdgeCases pins the boundary behaviours the random trials may
// visit rarely: both runs empty, one empty, k=1 ties, and duplicate IDs
// where the second copy improves on the first.
func TestKernelEdgeCases(t *testing.T) {
	dst := make([]Entry, 4)
	if n := MergeRuns(dst, 3, nil, nil); n != 0 {
		t.Fatalf("merge of empties: %d entries", n)
	}
	a := []Entry{{ID: 2, Score: 5}, {ID: 1, Score: 3}}
	if n := MergeRuns(dst, 3, a, nil); n != 2 || dst[0] != a[0] || dst[1] != a[1] {
		t.Fatalf("merge with empty right: %v", dst[:n])
	}
	// k=1 with an exact tie: lower ID wins.
	if n := MergeRuns(dst, 1, []Entry{{ID: 7, Score: 2}}, []Entry{{ID: 3, Score: 2}}); n != 1 || dst[0] != (Entry{ID: 3, Score: 2}) {
		t.Fatalf("k=1 tie: %v", dst[:1])
	}
	// Duplicate ID across sides: the better copy must win regardless of side.
	n := MergeRuns(dst, 3, []Entry{{ID: 5, Score: 9}}, []Entry{{ID: 5, Score: 4}})
	if n != 1 || dst[0] != (Entry{ID: 5, Score: 9}) {
		t.Fatalf("cross-side duplicate: %v", dst[:n])
	}
	// PushRun improving a mid-run duplicate must re-sort it upward.
	run := []Entry{{ID: 1, Score: 9}, {ID: 2, Score: 5}, {ID: 3, Score: 1}}
	if n := PushRun(run, 3, 3, Entry{ID: 3, Score: 7}); n != 3 ||
		run[0] != (Entry{ID: 1, Score: 9}) || run[1] != (Entry{ID: 3, Score: 7}) || run[2] != (Entry{ID: 2, Score: 5}) {
		t.Fatalf("improving duplicate: %v", run[:n])
	}
	// PushRun must ignore a worse duplicate even when the run is not full.
	if n := PushRun(run, 3, 4, Entry{ID: 1, Score: 2}); n != 3 {
		t.Fatalf("worse duplicate grew run: %v", run[:n])
	}
	// A duplicate ID arriving below a full run's threshold is rejected by the
	// threshold test before the duplicate scan: the held copy (here the best
	// entry) must stay, and nothing may be evicted for it.
	full := []Entry{{ID: 1, Score: 9}, {ID: 3, Score: 7}, {ID: 2, Score: 5}}
	for _, e := range []Entry{{ID: 1, Score: 4}, {ID: 2, Score: 5}, {ID: 2, Score: 1}} {
		if n := PushRun(full, 3, 3, e); n != 3 ||
			full[0] != (Entry{ID: 1, Score: 9}) || full[1] != (Entry{ID: 3, Score: 7}) || full[2] != (Entry{ID: 2, Score: 5}) {
			t.Fatalf("below-threshold duplicate %+v changed a full run: %v", e, full[:n])
		}
	}
}

// scanRef is ScanRun's specification: a PushRun fold over the leaves with a
// strictly positive score.
func scanRef(run []Entry, n, k int, scores []float64, ids []int32) int {
	for _, id := range ids {
		if s := scores[id]; s > 0 {
			n = PushRun(run, n, k, Entry{ID: int(id), Score: s})
		}
	}
	return n
}

// checkScanRun folds start and then ids into two runs, one through ScanRun
// and one through its specification, and requires identical runs.
func checkScanRun(t *testing.T, k int, start []Entry, scores []float64, ids []int32) {
	t.Helper()
	got, want := make([]Entry, k), make([]Entry, k)
	n := copy(got, start)
	copy(want, start)
	gn := ScanRun(got, n, k, scores, ids)
	wn := scanRef(want, n, k, scores, ids)
	if !slices.Equal(got[:gn], want[:wn]) {
		t.Fatalf("k=%d start %v scores %v ids %v: ScanRun kept %v, PushRun fold %v", k, start, scores, ids, got[:gn], want[:wn])
	}
	checkRun(t, "ScanRun", got[:gn])
}

// TestScanRunMatchesPushRun drives ScanRun against a PushRun fold on random
// score slabs with zeros, negatives, NaN, frequent ties and repeated IDs,
// into runs that start empty, part-filled and full (including entries for
// IDs the scan then revisits).
func TestScanRunMatchesPushRun(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5000; trial++ {
		k := 1 + rng.Intn(8)
		scores := make([]float64, 12)
		for v := range scores {
			scores[v] = float64(rng.Intn(7) - 2)
		}
		if rng.Intn(10) == 0 {
			scores[rng.Intn(len(scores))] = math.NaN()
		}
		// The starting run holds leaves at their slab score (as the plan
		// runner's do) and sometimes foreign IDs at any score.
		l := New(k)
		for i := rng.Intn(k + 1); i > 0; i-- {
			if v := rng.Intn(len(scores)); scores[v] > 0 && rng.Intn(3) > 0 {
				l.Push(Entry{ID: v, Score: scores[v]})
			} else {
				l.Push(Entry{ID: 100 + rng.Intn(4), Score: float64(rng.Intn(7) - 2)})
			}
		}
		ids := make([]int32, rng.Intn(20))
		for i := range ids {
			ids[i] = int32(rng.Intn(len(scores)))
		}
		checkScanRun(t, k, l.Entries(), scores, ids)
	}
}

// decodeRuns turns fuzz bytes into two valid runs plus a k, exercising the
// kernels on adversarial shapes while honoring their input contract.
func decodeRuns(data []byte) (k int, a, b []Entry) {
	if len(data) == 0 {
		return 1, nil, nil
	}
	k = 1 + int(data[0]%8)
	data = data[1:]
	la, lb := New(k), New(k)
	for i := 0; i+1 < len(data); i += 2 {
		e := Entry{ID: int(data[i] % 16), Score: float64(data[i+1] % 8)}
		if i%4 == 0 {
			la.Push(e)
		} else {
			lb.Push(e)
		}
	}
	return k, la.Entries(), lb.Entries()
}

// FuzzMergeRuns fuzzes the two-pointer kernel against the reference Merge.
func FuzzMergeRuns(f *testing.F) {
	f.Add([]byte{3, 1, 5, 2, 5, 1, 7, 3, 3})
	f.Add([]byte{1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		k, a, b := decodeRuns(data)
		want := Merge(listFromRun(k, a), listFromRun(k, b))
		dst := make([]Entry, k)
		n := MergeRuns(dst, k, a, b)
		if !equalRuns(dst[:n], want) {
			t.Fatalf("MergeRuns(k=%d, %v, %v) = %v, want %v", k, a, b, dst[:n], want)
		}
	})
}

// FuzzFoldRun fuzzes the fold kernel (with its early exit) against Merge.
func FuzzFoldRun(f *testing.F) {
	f.Add([]byte{2, 9, 4, 9, 4, 1, 1, 2, 2})
	f.Add([]byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		k, a, b := decodeRuns(data)
		want := Merge(listFromRun(k, a), listFromRun(k, b))
		run := make([]Entry, k)
		n := FoldRun(run, 0, k, a)
		n = FoldRun(run, n, k, b)
		if !equalRuns(run[:n], want) {
			t.Fatalf("FoldRun(k=%d, %v, %v) = %v, want %v", k, a, b, run[:n], want)
		}
	})
}

// FuzzScanRun fuzzes the threshold scan against the PushRun fold: byte 0
// picks k; byte 1's low half says how many of the following bytes are slab
// scores (mapped to −2…5, so zeros, negatives and ties are common) and its
// high half how many leading IDs are folded in beforehand, so the scan starts
// from an empty, part-filled or full run; the rest are leaf IDs, repeats
// welcome.
func FuzzScanRun(f *testing.F) {
	f.Add([]byte{3, 0x24, 5, 5, 0, 1, 0, 1, 2, 3, 3, 2, 1, 0})
	f.Add([]byte{0, 0x01, 2, 0, 0, 0})
	f.Add([]byte{7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k, ns, pre := 1+int(data[0]%8), 1+int(data[1]%16), int(data[1]>>4)
		data = data[2:]
		scores := make([]float64, ns)
		for v := 0; v < ns && v < len(data); v++ {
			scores[v] = float64(data[v]%8) - 2
		}
		data = data[min(ns, len(data)):]
		ids := make([]int32, len(data))
		for i, b := range data {
			ids[i] = int32(int(b) % ns)
		}
		pre = min(pre, len(ids))
		start := make([]Entry, k)
		n := scanRef(start, 0, k, scores, ids[:pre])
		checkScanRun(t, k, start[:n], scores, ids[pre:])
	})
}
