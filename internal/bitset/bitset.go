// Package bitset provides dense, fixed-capacity bitsets used throughout the
// shared winner-determination planner to represent sets of advertisers
// (variables of ⊕-expressions) and sets of queries (membership signatures).
//
// Under the semilattice axioms {A1..A4} of the paper, two ⊕-expressions are
// A-equivalent iff their variable sets are equal (Lemma 1), so the planner
// manipulates nothing but these sets; making them fast and allocation-light
// matters for plan construction time.
package bitset

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a dense bitset. The zero value is an empty set of capacity zero;
// use New to create a set able to hold elements in [0, n).
//
// All binary operations (Union, Intersect, ...) require operands created
// with the same capacity; mixing capacities panics, because silently
// truncating a set of advertisers would corrupt a plan.
type Set struct {
	n     int
	words []uint64
}

// New returns an empty set able to hold elements in [0, n).
func New(n int) Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative capacity %d", n))
	}
	return Set{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// NewBatch returns count empty sets of capacity n carved from one allocation,
// for callers that create many sets of one capacity at a time.
func NewBatch(n, count int) []Set {
	if n < 0 || count < 0 {
		panic(fmt.Sprintf("bitset: negative capacity %d or count %d", n, count))
	}
	words := (n + wordBits - 1) / wordBits
	slab := make([]uint64, words*count)
	sets := make([]Set, count)
	for i := range sets {
		sets[i] = Set{n: n, words: slab[i*words : (i+1)*words : (i+1)*words]}
	}
	return sets
}

// FromIndices returns a set of capacity n containing exactly the given
// elements.
func FromIndices(n int, indices ...int) Set {
	s := New(n)
	for _, i := range indices {
		s.Add(i)
	}
	return s
}

// Cap returns the capacity the set was created with.
func (s Set) Cap() int { return s.n }

func (s Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

func (s Set) checkSame(t Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d vs %d", s.n, t.n))
	}
}

// Words returns the set's words, element i being bit i%64 of word i/64. The
// slice is a read-only view of the set, not a copy.
func (s Set) Words() []uint64 { return s.words[:len(s.words):len(s.words)] }

// Add inserts i into the set.
func (s Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << (i % wordBits)
}

// Remove deletes i from the set.
func (s Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << (i % wordBits)
}

// Contains reports whether i is in the set.
func (s Set) Contains(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<(i%wordBits)) != 0
}

// Count returns the number of elements in the set.
func (s Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// IsEmpty reports whether the set has no elements.
func (s Set) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the set.
func (s Set) Clone() Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return Set{n: s.n, words: w}
}

// Clear removes all elements in place.
func (s Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Union returns a new set s ∪ t.
func (s Set) Union(t Set) Set {
	s.checkSame(t)
	r := New(s.n)
	for i := range s.words {
		r.words[i] = s.words[i] | t.words[i]
	}
	return r
}

// UnionInPlace sets s = s ∪ t.
func (s Set) UnionInPlace(t Set) {
	s.checkSame(t)
	for i := range s.words {
		s.words[i] |= t.words[i]
	}
}

// Intersect returns a new set s ∩ t.
func (s Set) Intersect(t Set) Set {
	s.checkSame(t)
	r := New(s.n)
	for i := range s.words {
		r.words[i] = s.words[i] & t.words[i]
	}
	return r
}

// Difference returns a new set s \ t.
func (s Set) Difference(t Set) Set {
	s.checkSame(t)
	r := New(s.n)
	for i := range s.words {
		r.words[i] = s.words[i] &^ t.words[i]
	}
	return r
}

// DifferenceInPlace sets s = s \ t.
func (s Set) DifferenceInPlace(t Set) {
	s.checkSame(t)
	for i := range s.words {
		s.words[i] &^= t.words[i]
	}
}

// Equal reports whether s and t contain the same elements.
func (s Set) Equal(t Set) bool {
	s.checkSame(t)
	for i := range s.words {
		if s.words[i] != t.words[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every element of s is in t.
func (s Set) SubsetOf(t Set) bool {
	s.checkSame(t)
	for i := range s.words {
		if s.words[i]&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether s ∩ t is nonempty.
func (s Set) Intersects(t Set) bool {
	s.checkSame(t)
	for i := range s.words {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// IntersectCount returns |s ∩ t| without allocating.
func (s Set) IntersectCount(t Set) int {
	s.checkSame(t)
	c := 0
	for i := range s.words {
		c += bits.OnesCount64(s.words[i] & t.words[i])
	}
	return c
}

// Indices returns the elements of the set in ascending order.
func (s Set) Indices() []int {
	out := make([]int, 0, s.Count())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// ForEach calls fn for each element in ascending order. It stops early if fn
// returns false.
func (s Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// ForEachCommon calls fn for each element of s ∩ t in ascending order,
// without building the intersection. It stops early if fn returns false.
func (s Set) ForEachCommon(t Set, fn func(i int) bool) {
	s.checkSame(t)
	for wi, w := range s.words {
		for w &= t.words[wi]; w != 0; w &= w - 1 {
			if !fn(wi*wordBits + bits.TrailingZeros64(w)) {
				return
			}
		}
	}
}

// Key returns a string usable as a map key identifying the set's contents.
// Sets with equal contents (and capacity) have equal keys.
func (s Set) Key() string {
	var b strings.Builder
	b.Grow(len(s.words) * 8)
	var word [8]byte
	for _, w := range s.words {
		b.Write(binary.LittleEndian.AppendUint64(word[:0], w))
	}
	return b.String()
}

// String renders the set as "{i1, i2, ...}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}
