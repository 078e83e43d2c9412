package streamgraph

import (
	"sync/atomic"

	"tripoline/internal/graph"
)

// FaultSeam is a build-tag-free injection point for the differential
// checker (internal/check): it lets a test harness force the rare
// branches of the mirror lifecycle — Retain failing (the reader builds
// a private mirror), FlattenFrom refusing the delta patch (full
// rebuild), and a deliberately skewed delta patch (the checker's
// self-test: a harness that cannot catch a corrupted mirror validates
// nothing) — deterministically instead of waiting for a race to produce
// them. The seam lives on the graph's flatShared so it applies to every
// snapshot of one Graph and nothing else; all fields are atomics, so
// flipping a fault while readers are in flight is safe.
//
// Production code never sets these; the zero value (all faults off) has
// one atomic load of cost per guarded branch.
type FaultSeam struct {
	denyRetain atomic.Bool
	forceFull  atomic.Bool
	skewDelta  atomic.Bool
}

// Seam returns the graph's fault-injection seam.
func (g *Graph) Seam() *FaultSeam { return &g.shared.seam }

// SetDenyRetain makes every Flat.Retain on this graph's mirrors report
// failure, forcing readers onto the build-on-miss path of core.PinMirror.
func (fs *FaultSeam) SetDenyRetain(on bool) { fs.denyRetain.Store(on) }

// SetForceFull makes MaterializeFlatFrom (and therefore FlattenFrom)
// ignore a patchable parent and rebuild the mirror in full.
func (fs *FaultSeam) SetForceFull(on bool) { fs.forceFull.Store(on) }

// SetSkewDelta makes every delta-patched build corrupt one arc of the
// first changed source (an off-by-one on the destination). The full
// build path is untouched, so only results served from a delta-patched
// mirror diverge — exactly the bug class the checker exists to catch.
func (fs *FaultSeam) SetSkewDelta(on bool) { fs.skewDelta.Store(on) }

// skewFlat applies the SetSkewDelta corruption to a freshly built
// delta-patched mirror: bump the first arc of the first changed source
// that has one. Isolated changed sources (degree 0) leave the mirror
// intact, as does an empty changed list.
func skewFlat(f *Flat, changed []graph.VertexID) {
	for _, c := range changed {
		lo, hi := f.off[c], f.off[c+1]
		if lo < hi {
			f.adj[lo] = (f.adj[lo] + 1) % graph.VertexID(f.n)
			return
		}
	}
}
