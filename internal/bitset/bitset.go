// Package bitset provides a compact, growable set of non-negative integers.
//
// Bit sets hold the reachability rows of the condensed augmented graph
// (graph.CondReach) and of the test-only closure oracle, where the values
// are dense component or node ids. Sets of locations are sorted lists
// (trace.Locs) instead: a bit set costs words up to its largest value,
// and a location can be large while the set holding it is small.
package bitset

import "fmt"

const wordBits = 64

// Set is a growable bit set. The zero value is an empty set ready to use.
type Set struct {
	words []uint64
}

// New returns a set with capacity for values in [0, n). The set still grows
// automatically if larger values are added.
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

func (s *Set) grow(word int) {
	if word < len(s.words) {
		return
	}
	w := make([]uint64, word+1)
	copy(w, s.words)
	s.words = w
}

// Add inserts v into the set. Negative values panic: node and component
// ids are non-negative by construction, so a negative value is a bug.
func (s *Set) Add(v int) {
	if v < 0 {
		panic(fmt.Sprintf("bitset: Add(%d): negative value", v))
	}
	word := v / wordBits
	s.grow(word)
	s.words[word] |= 1 << (uint(v) % wordBits)
}

// Contains reports whether v is in the set.
func (s *Set) Contains(v int) bool {
	if v < 0 {
		return false
	}
	word := v / wordBits
	if word >= len(s.words) {
		return false
	}
	return s.words[word]&(1<<(uint(v)%wordBits)) != 0
}

// Union adds every element of other to s.
func (s *Set) Union(other *Set) {
	s.grow(len(other.words) - 1)
	for i, w := range other.words {
		s.words[i] |= w
	}
}
