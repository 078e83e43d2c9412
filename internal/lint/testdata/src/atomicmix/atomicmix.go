// Package atomicmix is the golden-test corpus for the atomicmix
// analyzer. Lines marked with want comments carry their expected
// diagnostic message substrings.
package atomicmix

import (
	"sync"
	"sync/atomic"
)

// --- violation 1: scalar accessed atomically and plainly -------------

var counter uint64

func bumpCounter() {
	atomic.AddUint64(&counter, 1)
}

func readCounterPlain() uint64 {
	return counter // want "accessed atomically"
}

// --- violation 2: struct field mixed across methods ------------------

type stats struct {
	hits uint64
}

func (s *stats) bump() {
	atomic.AddUint64(&s.hits, 1)
}

func (s *stats) snapshot() uint64 {
	return s.hits // want "accessed atomically"
}

// --- violation 3: plain element access inside a concurrent closure ---

func elemRace(vals []uint64) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		atomic.AddUint64(&vals[0], 1)
	}()
	go func() {
		defer wg.Done()
		vals[1] = 7 // want "races with the atomic updates"
	}()
	wg.Wait()
}

// --- violation 4: plain init before the workers are published --------
//
// Straight-line accesses before the workers start or after they join are
// flagged as well: no site needs them, so the rule has no carve-out for
// them.

func initThenShare(n int) []uint64 {
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = 0 // want "races with the atomic updates"
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		atomic.AddUint64(&vals[0], 1)
	}()
	wg.Wait()
	return vals
}

// --- legal: method-based atomic types cannot be misused --------------
//
// Their methods are not sync/atomic functions, so nothing tracks them and
// no exception is needed.

type gauge struct {
	v atomic.Uint64
}

func (g *gauge) inc() {
	g.v.Add(1)
}

func (g *gauge) get() uint64 {
	return g.v.Load()
}

// --- violation 5: passing the element's address on --------------------
//
// A helper handed the address is not trusted to use it atomically: no
// site needs the hand-off, so it is flagged.

func casHelper(p *uint64) {
	atomic.AddUint64(p, 1)
}

func addrHandOff(vals []uint64) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		atomic.AddUint64(&vals[0], 1)
		casHelper(&vals[1]) // want "races with the atomic updates"
	}()
	wg.Wait()
}

// --- violation 6: handing a scalar's address on ------------------------

func counterAddr() *uint64 {
	return &counter // want "accessed atomically"
}

// --- violation 7: owner-snapshot register block ------------------------
//
// Each worker owns vals[v] outright, snapshots it with a plain read and
// republishes with an atomic store at the same index. Even so the read
// is flagged: the rule has no ownership carve-out, the snapshot must be
// an atomic load (as the fused pull kernel's hoist is).

func ownerSnapshot(vals []uint64, n int) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := 0; v < n; v++ {
			cur := vals[v] // want "races with the atomic updates"
			if nv := atomic.LoadUint64(&vals[(v+1)%n]); nv < cur {
				cur = nv
			}
			atomic.StoreUint64(&vals[v], cur)
		}
	}()
	wg.Wait()
}
