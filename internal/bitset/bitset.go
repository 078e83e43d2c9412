// Package bitset implements fixed-capacity bit sets used for dense
// frontiers and per-query activity masks in the Tripoline engine.
//
// Two flavors are provided: Set, a plain bit set for single-threaded
// phases, and Atomic, whose TrySet is safe for concurrent writers and
// tells exactly one of them that it set the bit (the pattern required
// when many relaxations activate the same vertex in one parallel step).
package bitset

import (
	"math/bits"
	"sync/atomic"
)

const wordBits = 64

// Set is a fixed-capacity bit set. The zero value is unusable; use New.
type Set struct {
	words []uint64
	n     int
}

// New returns a Set able to hold bits [0, n).
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the capacity of the set in bits.
func (s *Set) Len() int { return s.n }

// Grow extends the set to hold bits [0, n); the new bits are clear.
func (s *Set) Grow(n int) {
	if n <= s.n {
		return
	}
	if w := (n + wordBits - 1) / wordBits; w > len(s.words) {
		s.words = append(s.words, make([]uint64, w-len(s.words))...)
	}
	s.n = n
}

// Set sets bit i.
func (s *Set) Set(i int) { s.words[i/wordBits] |= 1 << uint(i%wordBits) }

// Clear clears bit i.
func (s *Set) Clear(i int) { s.words[i/wordBits] &^= 1 << uint(i%wordBits) }

// Get reports whether bit i is set.
func (s *Set) Get(i int) bool { return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0 }

// Reset clears every bit.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// ForEach calls f for every set bit in ascending order.
func (s *Set) ForEach(f func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// Members appends the indices of all set bits to dst and returns it.
func (s *Set) Members(dst []int) []int {
	s.ForEach(func(i int) { dst = append(dst, i) })
	return dst
}

// Or sets s to the union of s and t. The sets must have equal capacity.
func (s *Set) Or(t *Set) {
	for i := range s.words {
		s.words[i] |= t.words[i]
	}
}

// Atomic is a bit set whose TrySet is safe for concurrent writers; it is
// read (Word, Count) and cleared (Clear, Reset) once they are done.
type Atomic struct {
	words []atomic.Uint64
	n     int
}

// NewAtomic returns an Atomic able to hold bits [0, n).
func NewAtomic(n int) *Atomic {
	return &Atomic{words: make([]atomic.Uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the capacity of the set in bits.
func (a *Atomic) Len() int { return a.n }

// TrySet sets bit i and reports whether this call is the one that set it:
// of any number of concurrent TrySets of a clear bit, exactly one returns
// true. A bit already set costs one load.
func (a *Atomic) TrySet(i int) bool {
	w := &a.words[i/wordBits]
	mask := uint64(1) << uint(i%wordBits)
	for {
		old := w.Load()
		if old&mask != 0 {
			return false
		}
		if w.CompareAndSwap(old, old|mask) {
			return true
		}
	}
}

// Clear clears bit i. Not safe concurrently with writers: it lets a
// caller that knows every set bit empty the set in O(set bits) instead of
// Reset's O(capacity/64).
func (a *Atomic) Clear(i int) {
	w := &a.words[i/wordBits]
	w.Store(w.Load() &^ (1 << uint(i%wordBits)))
}

// Word returns bits [64·wi, 64·wi+64), bit j of the result being bit
// 64·wi+j of the set, so a scan can be split across workers by word.
// Intended for use between parallel steps.
func (a *Atomic) Word(wi int) uint64 { return a.words[wi].Load() }

// Reset clears every bit. Not safe concurrently with writers.
func (a *Atomic) Reset() {
	for i := range a.words {
		a.words[i].Store(0)
	}
}

// Count returns the number of set bits. Not linearizable under concurrent
// writers; intended for use between parallel steps.
func (a *Atomic) Count() int {
	c := 0
	for i := range a.words {
		c += bits.OnesCount64(a.words[i].Load())
	}
	return c
}
