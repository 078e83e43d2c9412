package streamgraph

import (
	"sync/atomic"

	"tripoline/internal/graph"
)

// FaultSeam is a build-tag-free injection point for the differential
// checker (internal/check): it deliberately skews patches (the checker's
// self-tests: a harness that cannot catch a corrupted mirror or transpose
// validates nothing). The seam lives on the graph's flatShared so it
// applies to every mirror of one Graph and nothing else; all fields are
// atomics, so flipping a fault while readers are in flight is safe.
//
// Production code never sets these; the zero value (all faults off) has
// one atomic load of cost per guarded branch.
type FaultSeam struct {
	skewDelta     atomic.Bool
	skewTranspose atomic.Bool
}

// Seam returns the graph's fault-injection seam.
func (g *Graph) Seam() *FaultSeam { return &g.shared.seam }

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
