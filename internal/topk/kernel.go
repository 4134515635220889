package topk

// Merge kernels for the flat-compiled plan executor (plan.Runner). A "run"
// is the raw form of a List: a descending-sorted []Entry slice with unique
// IDs, living inside a dense slab segment instead of behind a *List. The
// kernels reproduce List.Push / Merge semantics exactly — top-k by
// (Score desc, ID asc), at most one entry per ID with the better one kept —
// but operate on slices with explicit lengths, so the hot loop touches no
// pointers, interfaces, or closures. Property and fuzz tests pin kernel
// output equal to Merge on arbitrary inputs.
//
// All kernels require their input runs to satisfy the List invariant
// (sorted descending by Entry.Less, IDs unique within a run); runs produced
// by the kernels satisfy it in turn.

// PushRun inserts e into the run run[:n] with capacity k, keeping the top k
// by (Score desc, ID asc) and at most one entry per ID, and returns the new
// length. It is the kernel form of List.Push: a threshold test, an O(n)
// de-duplication scan and an O(n) shift insertion, which beats heap
// bookkeeping for the small k of ad slots.
//
// The threshold comes first because it settles most pushes: an entry that
// does not beat a full run's worst cannot enter it, and cannot improve a
// held duplicate either — the duplicate ranks at or above the worst, so it
// is already at least as good as e.
func PushRun(run []Entry, n, k int, e Entry) int {
	if n == k && !e.Less(run[n-1]) {
		return n
	}
	for i := 0; i < n; i++ {
		if run[i].ID != e.ID {
			continue
		}
		if !e.Less(run[i]) {
			return n // existing entry is at least as good
		}
		// e improves on run[i]: slide the gap up to e's sorted position,
		// which is at or before i since e outranks the old entry.
		j := i
		for j > 0 && e.Less(run[j-1]) {
			j--
		}
		copy(run[j+1:i+1], run[j:i])
		run[j] = e
		return n
	}
	if n == k {
		n-- // e beats the worst, which drops out
	}
	j := n
	for j > 0 && e.Less(run[j-1]) {
		j--
	}
	copy(run[j+1:n+1], run[j:n])
	run[j] = e
	return n + 1
}

// ScanRun folds the leaves ids into run[:n], reading leaf id's score from
// scores[id] and skipping leaves whose score is not strictly positive. It
// equals a PushRun fold over those entries, but once the run is full a leaf
// scoring under the run's worst costs one load and one compare; only
// survivors and score ties go through PushRun, which keeps the ID
// tie-break and the de-duplication.
func ScanRun(run []Entry, n, k int, scores []float64, ids []int32) int {
	i := 0
	for ; n < k && i < len(ids); i++ {
		if s := scores[ids[i]]; s > 0 {
			n = PushRun(run, n, k, Entry{ID: int(ids[i]), Score: s})
		}
	}
	if i == len(ids) {
		return n
	}
	worst := run[k-1].Score
	for _, id := range ids[i:] {
		if s := scores[id]; s >= worst && s > 0 {
			n = PushRun(run, n, k, Entry{ID: int(id), Score: s})
			worst = run[k-1].Score
		}
	}
	return n
}

// MergeRuns writes the top-k merge a ⊕ b into dst and returns the result
// length. It is a single two-pointer pass over the sorted inputs; because
// entries are emitted in global rank order, a duplicate ID is always
// encountered after its better copy, so de-duplication is a membership scan
// over the ≤ k entries already emitted with no replacement case. dst must
// have capacity ≥ k and must not alias a or b.
func MergeRuns(dst []Entry, k int, a, b []Entry) int {
	n, i, j := 0, 0, 0
	for n < k && (i < len(a) || j < len(b)) {
		var e Entry
		switch {
		case i == len(a):
			e = b[j]
			j++
		case j == len(b):
			e = a[i]
			i++
		case a[i].Less(b[j]):
			e = a[i]
			i++
		default:
			e = b[j]
			j++
		}
		dup := false
		for t := 0; t < n; t++ {
			if dst[t].ID == e.ID {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		dst[n] = e
		n++
	}
	return n
}

// FoldRun merges src into run[:n] in place and returns the new length —
// the n-way kernel's inner step: a fold of PushRun over src with an early
// exit. Once the run is full, the first src entry that fails to beat the
// run's worst ends the fold, because src is sorted so no later entry can
// enter the run or improve a duplicate either.
func FoldRun(run []Entry, n, k int, src []Entry) int {
	for _, e := range src {
		if n == k && !e.Less(run[n-1]) {
			break
		}
		n = PushRun(run, n, k, e)
	}
	return n
}
