package streamgraph

import (
	"sync/atomic"

	"tripoline/internal/graph"
)

// FaultSeam is a build-tag-free injection point for the differential
// checker (internal/check): it lets a test harness force the rare
// branches of the mirror lifecycle — a reader's Retain failing (core
// re-reads the latest version and pins again) — and deliberately skewed
// patches (the checker's self-tests: a harness that cannot catch a
// corrupted mirror or transpose validates nothing), deterministically
// instead of waiting for a race to produce them. The seam lives on the
// graph's flatShared so it applies to every mirror of one Graph and
// nothing else; all fields are atomics, so flipping a fault while readers
// are in flight is safe.
//
// Production code never sets these; the zero value (all faults off) has
// one atomic load of cost per guarded branch.
type FaultSeam struct {
	denyRetain    atomic.Bool
	skewDelta     atomic.Bool
	skewTranspose atomic.Bool
}

// Seam returns the graph's fault-injection seam.
func (g *Graph) Seam() *FaultSeam { return &g.shared.seam }

// SetDenyRetain arms (or disarms) one failure: the next Flat.Retain on
// this graph's mirrors reports failure, as if the mirror had been retired
// and drained under the reader, which drives core's pin down its retry
// path.
func (fs *FaultSeam) SetDenyRetain(on bool) { fs.denyRetain.Store(on) }

// SetSkewDelta makes every published mirror corrupt one arc of the first
// changed source (an off-by-one on the destination), so results served
// from a patched mirror diverge — exactly the bug class the checker
// exists to catch.
func (fs *FaultSeam) SetSkewDelta(on bool) { fs.skewDelta.Store(on) }

// SetSkewTranspose makes every patched transposed mirror corrupt one arc
// of the first head the batch changed, the same off-by-one as
// SetSkewDelta, so only what reads a transpose — a directed graph's
// reversed standing queries — diverges.
func (fs *FaultSeam) SetSkewTranspose(on bool) { fs.skewTranspose.Store(on) }

// skewFlat applies the skew corruption to a freshly patched mirror: bump
// the first arc of the first changed source that has one. Isolated changed
// sources (degree 0) leave the mirror intact, as does an empty changed
// list.
func skewFlat(f *Flat, changed []graph.VertexID) {
	for _, c := range changed {
		lo, hi := f.off[c], f.off[c+1]
		if lo < hi {
			f.adj[lo] = (f.adj[lo] + 1) % graph.VertexID(f.n)
			return
		}
	}
}
