package core

import (
	"fmt"
	"slices"
	"sync"

	"tripoline/internal/streamgraph"
)

// barrier is the versioned snapshot barrier: a ring of published
// snapshots, newest last, each holding its mirror (Flat.Hold) while the
// ring retains it. The store publishes one version per admitted mutation,
// so a snapshot's version is the System's. Capacity 1 retains only the
// latest (the live serving state); EnableHistory widens the ring so
// QueryAt can address older versions, making the ring double as the
// System's history window. A mirror is the store, so a retained version
// costs O(E) bytes, and a query pins its snapshot's mirror once (pin).
//
// The lock guards the ring and the holds its snapshots keep on their
// mirrors: a reader pins under the read lock, and an eviction drops its
// hold under the write lock, so a pin always finds its mirror held and
// cannot fail. No barrier method blocks while holding the lock (the
// lockscope analyzer checks this for the whole package).
type barrier struct {
	mu    sync.RWMutex
	cap   int
	snaps []*streamgraph.Snapshot
}

// newBarrier starts a ring at first, which must be its store's latest
// snapshot, whose mirror the store's graph holds.
func newBarrier(first *streamgraph.Snapshot) *barrier {
	first.Flatten().Hold()
	return &barrier{cap: 1, snaps: []*streamgraph.Snapshot{first}}
}

// widen sets the retention window to capacity snapshots (never below 1).
func (b *barrier) widen(capacity int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.cap = max(capacity, 1)
	unhold(b.trimLocked())
}

// latest returns the newest published snapshot. Snapshots are immutable,
// so the caller may read the returned one without the lock.
func (b *barrier) latest() *streamgraph.Snapshot {
	b.mu.RLock()
	snap := b.snaps[len(b.snaps)-1]
	b.mu.RUnlock()
	return snap
}

// pinLatest is the System's Pin: the latest snapshot's mirror, pinned
// (see pin). It pins under the read lock, so the snapshot is in the ring
// and holds its mirror for as long as the pin takes.
func (b *barrier) pinLatest() (View, func()) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	view, release := pin(b.snaps[len(b.snaps)-1])
	return view, release
}

// pinAt pins the retained snapshot with the given version under the read
// lock, like pinLatest, or fails with an ErrNoSuchVersion-wrapping error
// when the version was never published or already fell out of the ring.
func (b *barrier) pinAt(version uint64) (View, func(), error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	for i := len(b.snaps) - 1; i >= 0; i-- {
		if snap := b.snaps[i]; snap.Version() == version {
			view, release := pin(snap)
			return view, release, nil
		}
	}
	return nil, nil, fmt.Errorf("core: version %d not retained (have %v): %w",
		version, b.versionsLocked(), ErrNoSuchVersion)
}

// versions lists the retained versions in ascending order.
func (b *barrier) versions() []uint64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.versionsLocked()
}

func (b *barrier) versionsLocked() []uint64 {
	out := make([]uint64, len(b.snaps))
	for i, snap := range b.snaps {
		out[i] = snap.Version()
	}
	return out
}

// publish holds snap's mirror and appends it (its version must exceed the
// newest; snap must be its store's latest, whose mirror the graph holds,
// so the hold cannot fail), then evicts the oldest snapshots beyond the
// ring capacity, dropping their holds under the lock.
func (b *barrier) publish(snap *streamgraph.Snapshot) {
	snap.Flatten().Hold()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.snaps = append(b.snaps, snap)
	unhold(b.trimLocked())
}

// trimLocked evicts the oldest snapshots beyond the capacity and returns
// them.
func (b *barrier) trimLocked() []*streamgraph.Snapshot {
	drop := len(b.snaps) - b.cap
	if drop <= 0 {
		return nil
	}
	evicted := slices.Clone(b.snaps[:drop])
	// Clear the evicted slots so the snapshots can be collected even while
	// the backing array is reused.
	clear(b.snaps[:drop])
	b.snaps = append(b.snaps[:0], b.snaps[drop:]...)
	return evicted
}

// unhold drops the holds of evicted snapshots on their mirrors.
func unhold(evicted []*streamgraph.Snapshot) {
	for _, snap := range evicted {
		snap.Flatten().Unhold()
	}
}
