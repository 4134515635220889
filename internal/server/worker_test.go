package server

import (
	"slices"
	"testing"
	"time"

	"sharedwd/internal/core"
)

// keepComp is a Completion that keeps each index's last result and counts
// answers, allocating nothing.
type keepComp struct {
	results  []Result
	answered int
}

func (c *keepComp) Complete(i int, res Result, err error) {
	if err != nil {
		panic(err)
	}
	c.results[i] = res
	c.answered++
}

// TestCloseRoundAllocs pins the answer path's allocations: a resolve copies
// its answered phrases' slots into one shared slab and hands out capped
// sub-slices of it, so a steady-state non-empty resolve allocates less than
// once on average — a fresh slab every few dozen resolves — however many
// phrases and requests it answers. A map and a copy per phrase, as before,
// cost several per resolve. Every answer must still be an independent copy:
// a result kept across later resolves keeps its slots, and appending to it
// cannot write into another's.
func TestCloseRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	w := testWorkload(t)
	for i := range w.Advertisers {
		w.Advertisers[i].Budget = 1e9 // never exhausts: every resolve fills its slots
	}
	wk, err := newWorker(w, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	wk.eng.Tick()
	phrases := []int{0, 3, 3, 7, 9}
	done := &keepComp{results: make([]Result, len(phrases))}
	occ := make([]bool, len(w.Interests))
	pending := make([]*request, 0, len(phrases))
	resolve := func() {
		now := time.Now()
		for i, q := range phrases {
			req := requestPool.Get().(*request)
			*req = request{phrase: q, resPhrase: q, enqueued: now, dequeued: now, cb: done, cbIndex: i}
			pending = append(pending, req)
		}
		pending = wk.closeRound(pending, occ)
	}
	for i := 0; i < 300; i++ {
		resolve()
	}
	kept := slices.Clone(done.results)
	keptSlots := make([][]core.SlotResult, len(kept))
	for i, res := range kept {
		if len(res.Slots) == 0 || cap(res.Slots) != len(res.Slots) {
			t.Fatalf("phrase %d: slots %v with capacity %d, want filled and capped", res.Phrase, res.Slots, cap(res.Slots))
		}
		keptSlots[i] = slices.Clone(res.Slots)
	}
	if avg := testing.AllocsPerRun(200, resolve); avg != 0 {
		t.Fatalf("a non-empty resolve allocates %v times on average, want less than once", avg)
	}
	for i, res := range kept {
		if !slices.Equal(res.Slots, keptSlots[i]) {
			t.Fatalf("phrase %d: kept slots changed from %v to %v by later resolves", res.Phrase, keptSlots[i], res.Slots)
		}
	}
	if want := (300 + 201) * len(phrases); done.answered != want {
		t.Fatalf("answered %d, want %d", done.answered, want)
	}
}
