package shard

import (
	"sync"

	"tripoline/internal/streamgraph"
)

// entry is one published global version: the per-shard version vector it
// pins and a strong reference to each shard's snapshot at exactly that
// vector. Snapshots are purely functional, so holding S of them per
// retained global version costs a few pointers; flat mirrors are NOT
// pinned here — a query pins its entry's S mirrors once (pin), building
// its own copy of any that was already retired.
type entry struct {
	global uint64
	vec    []uint64
	snaps  []*streamgraph.Snapshot
	// applied marks the shards whose sub-batch produced this entry (their
	// snapshots are new in it); the others carry over from the entry
	// before.
	applied []bool
	// n is the union vertex count — the max over snaps (shards can
	// disagree after an insertion grew only the shards its arcs reached).
	n int
	// owner maps every vertex below n to the shard that stores its
	// out-arcs (the router's table, which only ever grows).
	owner []uint8
}

// barrier is the versioned cross-shard snapshot barrier: a ring of
// published global versions, newest last. Capacity 1 retains only the
// latest vector (the live serving state); EnableHistory widens the ring
// so QueryAt can address older global versions, making the ring double
// as the router's history window.
//
// The lock protects only the ring bookkeeping — no barrier method blocks
// or calls into a shard while holding it (the lockscope analyzer checks
// this for the whole package).
type barrier struct {
	mu      sync.RWMutex
	cap     int
	entries []*entry
}

func newBarrier(first *entry) *barrier {
	return &barrier{cap: 1, entries: []*entry{first}}
}

// widen grows the retention window to capacity entries (never shrinks
// below 1).
func (b *barrier) widen(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	b.mu.Lock()
	b.cap = capacity
	b.trimLocked()
	b.mu.Unlock()
}

// latest returns the newest published entry. Entries are immutable after
// publish, so the caller may read the returned entry without the lock.
func (b *barrier) latest() *entry {
	b.mu.RLock()
	e := b.entries[len(b.entries)-1]
	b.mu.RUnlock()
	return e
}

// at returns the entry published for the given global version, or false
// when it was never published or already fell out of the ring.
func (b *barrier) at(global uint64) (*entry, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	for i := len(b.entries) - 1; i >= 0; i-- {
		if b.entries[i].global == global {
			return b.entries[i], true
		}
	}
	return nil, false
}

// versions lists the retained global versions in ascending order.
func (b *barrier) versions() []uint64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]uint64, len(b.entries))
	for i, e := range b.entries {
		out[i] = e.global
	}
	return out
}

// publish appends a new entry (its global must exceed the newest) and
// evicts the oldest entries beyond the ring capacity.
func (b *barrier) publish(e *entry) {
	b.mu.Lock()
	b.entries = append(b.entries, e)
	b.trimLocked()
	b.mu.Unlock()
}

func (b *barrier) trimLocked() {
	if drop := len(b.entries) - b.cap; drop > 0 {
		// Clear the evicted slots so the snapshots they pinned can be
		// collected even while the backing array is reused.
		for i := 0; i < drop; i++ {
			b.entries[i] = nil
		}
		b.entries = append(b.entries[:0], b.entries[drop:]...)
	}
}
