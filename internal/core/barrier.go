package core

import (
	"fmt"
	"slices"
	"sync"

	"tripoline/internal/streamgraph"
)

// entry is one published version: the per-store version vector it pins
// and a strong reference to each store's snapshot at exactly that vector,
// whose mirror it holds (Flat.Hold) while the barrier's ring retains it.
// A mirror is the store, so a retained version costs O(E) bytes — the
// arcs of its stores that later versions do not share — and a query pins
// its entry's mirrors once (pin).
type entry struct {
	global uint64
	vec    []uint64
	snaps  []*streamgraph.Snapshot
	// applied marks the stores whose sub-batch produced this entry (their
	// snapshots are new in it); the others carry over from the entry
	// before.
	applied []bool
	// n is the vertex count — the max over snaps (stores can disagree
	// after an insertion grew only the stores its arcs reached).
	n int
	// owner maps every vertex below n to the store that holds its
	// out-arcs (the System's table, which only ever grows).
	owner []uint8
}

// barrier is the versioned snapshot barrier: a ring of published
// entries, newest last. Capacity 1 retains only the latest (the live
// serving state); EnableHistory widens the ring so QueryAt can address
// older versions, making the ring double as the System's history window.
//
// The lock guards the ring and the holds its entries keep on their
// mirrors: a reader pins under the read lock, and an eviction drops its
// holds under the write lock, so a pin always finds its entry's mirrors
// held and cannot fail. No barrier method blocks while holding the lock
// (the lockscope analyzer checks this for the whole package).
type barrier struct {
	mu      sync.RWMutex
	cap     int
	entries []*entry
}

func newBarrier(first *entry) *barrier {
	return &barrier{cap: 1, entries: []*entry{first}}
}

// widen sets the retention window to capacity entries (never below 1).
func (b *barrier) widen(capacity int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.cap = max(capacity, 1)
	unhold(b.trimLocked())
}

// latest returns the newest published entry. Entries are immutable after
// publish, so the caller may read the returned entry without the lock.
func (b *barrier) latest() *entry {
	b.mu.RLock()
	e := b.entries[len(b.entries)-1]
	b.mu.RUnlock()
	return e
}

// pinLatest is the System's Pin: the latest entry's view, pinned (see
// pin). It pins under the read lock, so the entry is in the ring and holds
// its mirrors for as long as the pin takes.
func (b *barrier) pinLatest() (View, func()) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	view, release := pin(b.entries[len(b.entries)-1])
	return view, release
}

// pinAt pins the retained entry with the given version under the read
// lock, like pinLatest, or fails with an ErrNoSuchVersion-wrapping error
// when the version was never published or already fell out of the ring.
func (b *barrier) pinAt(global uint64) (View, func(), error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	for i := len(b.entries) - 1; i >= 0; i-- {
		if e := b.entries[i]; e.global == global {
			view, release := pin(e)
			return view, release, nil
		}
	}
	return nil, nil, fmt.Errorf("core: version %d not retained (have %v): %w",
		global, b.versionsLocked(), ErrNoSuchVersion)
}

// versions lists the retained versions in ascending order.
func (b *barrier) versions() []uint64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.versionsLocked()
}

func (b *barrier) versionsLocked() []uint64 {
	out := make([]uint64, len(b.entries))
	for i, e := range b.entries {
		out[i] = e.global
	}
	return out
}

// publish appends a new entry (its version must exceed the newest) and
// evicts the oldest entries beyond the ring capacity, dropping their
// holds under the lock.
func (b *barrier) publish(e *entry) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.entries = append(b.entries, e)
	unhold(b.trimLocked())
}

// trimLocked evicts the oldest entries beyond the capacity and returns
// them.
func (b *barrier) trimLocked() []*entry {
	drop := len(b.entries) - b.cap
	if drop <= 0 {
		return nil
	}
	evicted := slices.Clone(b.entries[:drop])
	// Clear the evicted slots so the snapshots they held can be collected
	// even while the backing array is reused.
	clear(b.entries[:drop])
	b.entries = append(b.entries[:0], b.entries[drop:]...)
	return evicted
}

// unhold drops the holds of evicted entries on their mirrors.
func unhold(evicted []*entry) {
	for _, e := range evicted {
		for _, snap := range e.snaps {
			snap.Flatten().Unhold()
		}
	}
}
