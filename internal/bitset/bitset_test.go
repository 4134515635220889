package bitset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(100)
	if !s.IsEmpty() {
		t.Fatal("new set should be empty")
	}
	if s.Count() != 0 {
		t.Fatalf("Count = %d, want 0", s.Count())
	}
	if s.Cap() != 100 {
		t.Fatalf("Cap = %d, want 100", s.Cap())
	}
}

func TestAddRemoveContains(t *testing.T) {
	s := New(130) // spans three words
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Contains(i) {
			t.Fatalf("unexpected member %d", i)
		}
		s.Add(i)
		if !s.Contains(i) {
			t.Fatalf("missing member %d after Add", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Fatal("64 still present after Remove")
	}
	if got := s.Count(); got != 7 {
		t.Fatalf("Count = %d, want 7", got)
	}
}

func TestAddIdempotent(t *testing.T) {
	s := New(10)
	s.Add(3)
	s.Add(3)
	if got := s.Count(); got != 1 {
		t.Fatalf("Count = %d, want 1", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	cases := []func(){
		func() { New(10).Add(10) },
		func() { New(10).Add(-1) },
		func() { New(10).Contains(10) },
		func() { New(10).Remove(-1) },
		func() { New(-1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on capacity mismatch")
		}
	}()
	New(10).Union(New(20))
}

func TestSetAlgebra(t *testing.T) {
	a := FromIndices(10, 1, 2, 3)
	b := FromIndices(10, 3, 4, 5)

	if got := a.Union(b).Indices(); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 5}) {
		t.Fatalf("Union = %v", got)
	}
	if got := a.Intersect(b).Indices(); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("Intersect = %v", got)
	}
	if got := a.Difference(b).Indices(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("Difference = %v", got)
	}
	if !a.Intersects(b) {
		t.Fatal("a should intersect b")
	}
	if a.IntersectCount(b) != 1 {
		t.Fatalf("IntersectCount = %d, want 1", a.IntersectCount(b))
	}
	c := FromIndices(10, 7, 8)
	if a.Intersects(c) {
		t.Fatal("a should not intersect c")
	}
}

func TestSubsetEqual(t *testing.T) {
	a := FromIndices(70, 1, 64)
	b := FromIndices(70, 1, 2, 64)
	if !a.SubsetOf(b) {
		t.Fatal("a ⊆ b expected")
	}
	if b.SubsetOf(a) {
		t.Fatal("b ⊄ a expected")
	}
	if !a.SubsetOf(a) {
		t.Fatal("a ⊆ a expected")
	}
	if a.Equal(b) {
		t.Fatal("a ≠ b expected")
	}
	if !a.Equal(a.Clone()) {
		t.Fatal("clone should equal original")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromIndices(10, 1)
	b := a.Clone()
	b.Add(2)
	if a.Contains(2) {
		t.Fatal("mutating clone affected original")
	}
}

func TestInPlaceOps(t *testing.T) {
	a := FromIndices(10, 1, 2)
	a.UnionInPlace(FromIndices(10, 2, 3))
	if got := a.Indices(); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("UnionInPlace = %v", got)
	}
	a.DifferenceInPlace(FromIndices(10, 1))
	if got := a.Indices(); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Fatalf("DifferenceInPlace = %v", got)
	}
	a.Clear()
	if !a.IsEmpty() {
		t.Fatal("Clear should empty the set")
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := FromIndices(10, 1, 2, 3, 4)
	var seen []int
	s.ForEach(func(i int) bool {
		seen = append(seen, i)
		return len(seen) < 2
	})
	if !reflect.DeepEqual(seen, []int{1, 2}) {
		t.Fatalf("seen = %v", seen)
	}
}

func TestKeyDistinguishesContents(t *testing.T) {
	a := FromIndices(128, 0, 127)
	b := FromIndices(128, 0, 126)
	if a.Key() == b.Key() {
		t.Fatal("distinct sets share Key")
	}
	if a.Key() != a.Clone().Key() {
		t.Fatal("equal sets have distinct Key")
	}
	// The key is the words in little-endian byte order; plan builds
	// enumerate maps keyed by it, so the bytes are part of the contract.
	if got, want := FromIndices(128, 0, 9, 127).Key(), "\x01\x02\x00\x00\x00\x00\x00\x00"+"\x00\x00\x00\x00\x00\x00\x00\x80"; got != want {
		t.Fatalf("Key = %q, want %q", got, want)
	}
}

func TestString(t *testing.T) {
	if got := FromIndices(10, 3, 1).String(); got != "{1, 3}" {
		t.Fatalf("String = %q", got)
	}
	if got := New(4).String(); got != "{}" {
		t.Fatalf("String = %q", got)
	}
}

// randomSet builds a Set plus a reference map from an rng.
func randomSet(rng *rand.Rand, n int) (Set, map[int]bool) {
	s := New(n)
	ref := make(map[int]bool)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			s.Add(i)
			ref[i] = true
		}
	}
	return s, ref
}

func TestQuickAgainstMapModel(t *testing.T) {
	// Property: Union/Intersect/Difference agree with a map-based model.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		a, ra := randomSet(rng, n)
		b, rb := randomSet(rng, n)
		u, x, d := a.Union(b), a.Intersect(b), a.Difference(b)
		for i := 0; i < n; i++ {
			if u.Contains(i) != (ra[i] || rb[i]) {
				return false
			}
			if x.Contains(i) != (ra[i] && rb[i]) {
				return false
			}
			if d.Contains(i) != (ra[i] && !rb[i]) {
				return false
			}
		}
		return u.Count() == len(unionMap(ra, rb))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func unionMap(a, b map[int]bool) map[int]bool {
	u := make(map[int]bool)
	for k, v := range a {
		if v {
			u[k] = true
		}
	}
	for k, v := range b {
		if v {
			u[k] = true
		}
	}
	return u
}

func TestQuickSemilatticeLaws(t *testing.T) {
	// Union is associative, commutative, idempotent — the same laws the
	// planner assumes of ⊕ via Lemma 1.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(150)
		a, _ := randomSet(rng, n)
		b, _ := randomSet(rng, n)
		c, _ := randomSet(rng, n)
		if !a.Union(b).Equal(b.Union(a)) {
			return false
		}
		if !a.Union(b.Union(c)).Equal(a.Union(b).Union(c)) {
			return false
		}
		if !a.Union(a).Equal(a) {
			return false
		}
		return a.Union(New(n)).Equal(a) // identity element
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIndicesRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		a, _ := randomSet(rng, n)
		back := FromIndices(n, a.Indices()...)
		return back.Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForEachCommon(t *testing.T) {
	collect := func(a, b Set, stopAfter int) []int {
		seen := []int{}
		a.ForEachCommon(b, func(i int) bool {
			seen = append(seen, i)
			return len(seen) != stopAfter
		})
		return seen
	}
	cases := []struct {
		name      string
		a, b      Set
		stopAfter int
		want      []int
	}{
		{"both empty", New(130), New(130), 0, []int{}},
		{"disjoint", FromIndices(130, 1, 64), FromIndices(130, 2, 65), 0, []int{}},
		{"across words, ascending", FromIndices(130, 0, 63, 64, 100, 129), FromIndices(130, 129, 64, 63, 5), 0, []int{63, 64, 129}},
		{"self", FromIndices(10, 3, 7), FromIndices(10, 3, 7), 0, []int{3, 7}},
		{"early stop", FromIndices(130, 1, 70, 128), FromIndices(130, 1, 70, 128), 2, []int{1, 70}},
		{"capacity zero", New(0), New(0), 0, []int{}},
	}
	for _, c := range cases {
		if got := collect(c.a, c.b, c.stopAfter); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: saw %v, want %v", c.name, got, c.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on capacity mismatch")
		}
	}()
	New(10).ForEachCommon(New(20), func(int) bool { return true })
}

func TestQuickForEachCommonMatchesIntersect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		a, _ := randomSet(rng, n)
		b, _ := randomSet(rng, n)
		got := []int{}
		a.ForEachCommon(b, func(i int) bool { got = append(got, i); return true })
		want := []int{}
		a.Intersect(b).ForEach(func(i int) bool { want = append(want, i); return true })
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewBatch(t *testing.T) {
	sets := NewBatch(70, 3)
	if len(sets) != 3 {
		t.Fatalf("NewBatch returned %d sets, want 3", len(sets))
	}
	sets[1].Add(0)
	sets[1].Add(69)
	for i, s := range sets {
		if s.Cap() != 70 {
			t.Fatalf("set %d has capacity %d, want 70", i, s.Cap())
		}
		if want := map[int]int{1: 2}[i]; s.Count() != want {
			t.Fatalf("set %d holds %d elements after filling its neighbour, want %d", i, s.Count(), want)
		}
	}
	if !sets[0].Union(New(70)).Equal(sets[2]) {
		t.Fatal("a batched set must combine with a New one of the same capacity")
	}
	if len(NewBatch(70, 0)) != 0 {
		t.Fatal("NewBatch(n, 0) must be empty")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative count")
		}
	}()
	NewBatch(70, -1)
}

func BenchmarkUnion(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, _ := randomSet(rng, 4096)
	y, _ := randomSet(rng, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.UnionInPlace(y)
	}
}

func BenchmarkIntersectCount(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, _ := randomSet(rng, 4096)
	y, _ := randomSet(rng, 4096)
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += x.IntersectCount(y)
	}
	_ = sink
}

func TestWords(t *testing.T) {
	s := FromIndices(130, 0, 63, 64, 129)
	want := []uint64{1 | 1<<63, 1, 1 << 1}
	if got := s.Words(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Words = %#x, want %#x", got, want)
	}
	// A view, not a copy: later writes to the set show through it.
	w := s.Words()
	s.Add(65)
	if w[1] != 1|1<<1 {
		t.Fatalf("Words view missed Add: word 1 = %#x", w[1])
	}
	// Capped at its length, so an append cannot write into the set.
	if cap(w) != len(w) {
		t.Fatalf("Words cap %d, len %d", cap(w), len(w))
	}
	if got := New(0).Words(); len(got) != 0 {
		t.Fatalf("empty capacity: Words = %v", got)
	}
}
