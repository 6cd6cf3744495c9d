// Package bitset provides a compact, growable set of non-negative integers.
//
// Bit sets are the workhorse representation for two hot paths in weakrace:
// the READ/WRITE access sets attached to computation events (paper §4.1
// suggests exactly this: "bit-vectors representing those (shared) variables
// that might be accessed between two synchronization events"), and the
// reachability rows of the condensed happens-before-1 graph.
package bitset

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

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

// Wrap returns a Set backed by words without copying — the allocation
// device behind pooled reachability rows, where many fixed-width sets are
// carved out of one slab. The caller relinquishes ownership of the slice:
// mutating it afterwards corrupts the set. Adding a value beyond the
// wrapped capacity grows (reallocates) the set, detaching it from the
// backing slice.
func Wrap(words []uint64) *Set {
	return &Set{words: words}
}

// FromSlice returns a set containing exactly the given values. The set
// is sized once from the largest value, so building it costs one
// allocation whatever order the values come in.
func FromSlice(values []int) *Set {
	s := &Set{}
	if len(values) > 0 {
		s.grow(slices.Max(values) / wordBits)
	}
	for _, v := range values {
		s.Add(v)
	}
	return s
}

func (s *Set) grow(word int) {
	if word < len(s.words) {
		return
	}
	w := make([]uint64, word+1)
	copy(w, s.words)
	s.words = w
}

// Add inserts v into the set. Negative values panic: access sets and graph
// node ids are non-negative by construction, so a negative value is a bug.
func (s *Set) Add(v int) {
	if v < 0 {
		panic(fmt.Sprintf("bitset: Add(%d): negative value", v))
	}
	word := v / wordBits
	s.grow(word)
	s.words[word] |= 1 << (uint(v) % wordBits)
}

// Remove deletes v from the set if present.
func (s *Set) Remove(v int) {
	if v < 0 {
		return
	}
	word := v / wordBits
	if word >= len(s.words) {
		return
	}
	s.words[word] &^= 1 << (uint(v) % wordBits)
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

// Len returns the number of elements in the set.
func (s *Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clear removes all elements, retaining capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// Union adds every element of other to s.
func (s *Set) Union(other *Set) {
	s.grow(len(other.words) - 1)
	for i, w := range other.words {
		s.words[i] |= w
	}
}

// Intersects reports whether s and other share any element. This is the
// conflict test between access sets and is allocation-free.
func (s *Set) Intersects(other *Set) bool {
	n := len(s.words)
	if len(other.words) < n {
		n = len(other.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&other.words[i] != 0 {
			return true
		}
	}
	return false
}

// Intersection returns a new set holding the elements common to s and other.
func (s *Set) Intersection(other *Set) *Set {
	n := len(s.words)
	if len(other.words) < n {
		n = len(other.words)
	}
	out := &Set{words: make([]uint64, n)}
	for i := 0; i < n; i++ {
		out.words[i] = s.words[i] & other.words[i]
	}
	return out
}

// Equal reports whether s and other contain the same elements.
func (s *Set) Equal(other *Set) bool {
	long, short := s.words, other.words
	if len(short) > len(long) {
		long, short = short, long
	}
	for i, w := range short {
		if long[i] != w {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// Slice returns the elements in increasing order.
func (s *Set) Slice() []int {
	out := make([]int, 0, s.Len())
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, i*wordBits+b)
			w &^= 1 << uint(b)
		}
	}
	return out
}

// Range calls fn for each element in increasing order; it stops early if fn
// returns false.
func (s *Set) Range(fn func(v int) bool) {
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(i*wordBits + b) {
				return
			}
			w &^= 1 << uint(b)
		}
	}
}

// String renders the set as {a, b, c} for debugging and reports.
func (s *Set) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	s.Range(func(v int) bool {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&sb, "%d", v)
		return true
	})
	sb.WriteByte('}')
	return sb.String()
}
