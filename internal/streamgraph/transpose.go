package streamgraph

import (
	"tripoline/internal/engine"
	"tripoline/internal/graph"
)

// Transposed mirrors. On a directed graph the reversed standing queries
// q⁻¹(r) (package standing) are a push over the graph with every arc
// reversed, so a mirror that standing maintenance evaluates over keeps
// its transpose beside it: the same Flat layout, v's span listing the
// tails of v's in-arcs sorted by tail, at the arcs' weights.
//
// The first Transposed call builds it from the mirror in one pass over
// the arcs. After that it follows the mirror chain: when FlattenFrom
// patches a child mirror from a parent holding one, the parent hands its
// transpose over and the child's is patched from it with the batch's
// insertion record reversed — the record radix-sorted by head, then by
// tail — through the same patch (flat.go) that merges the record into the
// forward mirror: the offsets shifted segment by segment between heads,
// the unchanged spans bulk-copied and each head's new in-arcs merged into
// its old span, O(|record| + memcpy). A
// version no insertion produced has no record, so its transpose is built
// again on first use. The slabs come from the graph's recycler and go back
// with the mirror's.

// Transposed returns the mirror's graph with every arc reversed
// (engine.Transposer). Its Version is the mirror's, and when the mirror
// records an insertion its InsertedArcs are the mirror's reversed and
// sorted by their new tail. It is valid while the mirror is retained and
// until a FlattenFrom from this mirror takes it over (after which a call
// here builds it again), so it is the writer's: readers never need it.
// Safe for concurrent use.
func (f *Flat) Transposed() engine.ArcView {
	f.tmu.Lock()
	defer f.tmu.Unlock()
	if f.t == nil {
		f.t = transposeFrom(f.shared, f, nil)
	}
	return f.t
}

// takeTransposed detaches the mirror's transpose, if built, and hands it
// to the caller.
func (f *Flat) takeTransposed() *Flat {
	f.tmu.Lock()
	defer f.tmu.Unlock()
	t := f.t
	f.t = nil
	return t
}

// TransposeFrom returns the transpose of g, which need not be a single
// mirror — the shard router keeps one for the union of its shards'
// mirrors. It is patched from prev, the transpose of the version before
// g's, when g records the insertion between them (engine.ArcDelta), and
// built from g's spans otherwise; its Version and InsertedArcs follow g's
// as Transposed's do. The caller owns the result and releases it; prev
// stays the caller's, and its slabs are recycled into the result's
// builds.
func TransposeFrom(g engine.ArcView, prev *Flat) *Flat {
	sh := defaultFlatShared
	if prev != nil {
		sh = prev.shared
	}
	return transposeFrom(sh, g, prev)
}

// transposeFrom is TransposeFrom with the slabs drawn from sh.
func transposeFrom(sh *flatShared, g engine.ArcView, prev *Flat) *Flat {
	var version uint64
	var rec []graph.Edge
	insertion := false
	switch d := g.(type) {
	case engine.ArcDelta:
		version = d.Version()
		rec, insertion = d.InsertedArcs()
	case engine.Versioned:
		version = d.Version()
	}
	var rev []graph.Edge
	if insertion {
		rev = graph.ReversedArcs(rec)
	}
	n := g.NumVertices()
	if insertion && prev != nil && prev.version+1 == version && prev.n <= n {
		return patchTransposed(sh, prev, n, version, rev)
	}
	return buildTransposed(sh, g, version, rev, insertion)
}

// buildTransposed counts every vertex's in-arcs, then places each arc
// under its head. Tails are visited in ascending order, so every span
// comes out sorted.
func buildTransposed(sh *flatShared, g engine.ArcView, version uint64, rev []graph.Edge, insertion bool) *Flat {
	n := g.NumVertices()
	offs := sh.takeOff(int64(n) + 1)
	off := offs.off[:n+1]
	clear(off) // recycled slabs carry stale data
	for v := 0; v < n; v++ {
		dsts, _ := g.OutSpan(graph.VertexID(v))
		for _, d := range dsts {
			off[d+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	arcs := sh.takeArc(off[n])
	adj, wgt := arcs.adj[:off[n]], arcs.wgt[:off[n]]
	next := append([]int64(nil), off[:n]...)
	for v := 0; v < n; v++ {
		dsts, ws := g.OutSpan(graph.VertexID(v))
		for i, d := range dsts {
			adj[next[d]], wgt[next[d]] = graph.VertexID(v), ws[i]
			next[d]++
		}
	}
	return newMirror(sh, offs, arcs, n, version, rev, insertion)
}

// patchTransposed patches prev, the transpose of the version before, into
// the transpose of a version over n vertices whose new arcs, reversed and
// sorted, are rev: patch merges rev into prev's spans, as it merges the
// forward record into the forward mirror.
func patchTransposed(sh *flatShared, prev *Flat, n int, version uint64, rev []graph.Edge) *Flat {
	offs, arcs := patch(sh, prev, n, rev)
	return newMirror(sh, offs, arcs, n, version, rev, true)
}
