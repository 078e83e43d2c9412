package core

import (
	"tripoline/internal/engine"
	"tripoline/internal/streamgraph"
)

// View is what the evaluator evaluates over: the flat adjacency of one
// version of the graph — a snapshot's *streamgraph.Flat mirror itself, so
// evaluation reads exactly the spans, insertion record and patched
// transpose the mirror chain carries, with no indirection on the engine's
// hot path.
type View interface {
	engine.ArcView
	engine.Versioned
}

// pin pins snap's mirror once, for everything one query evaluates over
// it, so that a writer retiring it mid-query cannot recycle the slabs
// under the reader. The caller holds the barrier's read lock
// (barrier.pinLatest, barrier.pinAt), under which snap is in the ring and
// holds its mirror, so the retain cannot fail.
func pin(snap *streamgraph.Snapshot) (View, func()) {
	f := pinMirror(snap)
	return f, f.Release
}

// pinMirror retains snap's mirror. A held mirror always retains, so a
// failure breaks the ring's invariant and panics.
func pinMirror(snap *streamgraph.Snapshot) *streamgraph.Flat {
	f := snap.Flatten()
	if !f.Retain() {
		panic("core: pinned a mirror no snapshot holds")
	}
	return f
}

// current is the writer's view of the latest version, the counterpart of
// pin: its mirror is the store's latest, held by the graph until a later
// mutation, which needs the apply token the writer holds — so nothing is
// pinned. The mirror carries its own transpose for the directed standing
// sets, built once however many of them ask for it concurrently.
func (s *System) current() View { return s.bar.latest().Flatten() }
