// Package streamgraph implements the streaming graph store of Tripoline:
// a versioned graph whose every version is an immutable Snapshot that any
// number of readers (query evaluations) may traverse while a single writer
// derives the next version by inserting or deleting a batch of weighted
// arcs.
//
// A snapshot is its flat mirror (Flat: a CSR-style array of sorted
// out-spans) plus the insertion record by which it differs from its
// parent. The writer publishes each version by patching the parent's
// mirror with the batch: the unchanged spans are bulk-copied, each changed
// source's span is its parent span merged with the batch's arcs for it, or
// with the deleted ones taken out. The paper builds on Aspen's persistent
// C-trees (§5); Δ-initialization never reads them, and a mirror takes a
// fraction of a tree's bytes, so this store keeps the mirror alone. The price
// is that a version costs O(E) bytes to retain instead of O(batch): the
// writer recycles a superseded mirror's slabs as soon as its last reader
// releases it (recycle.go).
//
// The store keeps out-arcs only. The paper's dual-model evaluation (§4.2)
// runs q⁻¹(r) by pulling over that representation; here a directed
// graph's standing sets evaluate over a transposed mirror kept beside the
// mirror instead (transpose.go), patched from batch to batch like the
// mirror itself, so q⁻¹(r) is a push too.
//
// Insertions are first-wins: re-inserting a stored arc keeps its weight.
// Deletions are an extension beyond the paper's growing-graph scenario;
// core recovers standing state after them by trimming.
package streamgraph

import (
	"sort"
	"sync"
	"sync/atomic"

	"tripoline/internal/graph"
	"tripoline/internal/parallel"
)

// Snapshot is one immutable version of the graph: its mirror, built when
// the version was published. It is safe for concurrent use by any number
// of goroutines while the mirror is held — always for the latest version,
// which the Graph holds, and for any snapshot nobody retired (RetireFlat);
// a reader of a retired snapshot must have pinned its mirror (Flat.Retain).
type Snapshot struct {
	flat    *Flat
	n       int
	m       int64
	version uint64
	retired atomic.Bool
}

// NumVertices returns the number of vertices.
func (s *Snapshot) NumVertices() int { return s.n }

// NumEdges returns the number of stored arcs.
func (s *Snapshot) NumEdges() int64 { return s.m }

// Version returns the monotonically increasing version number (0 for the
// initial snapshot, +1 per applied batch).
func (s *Snapshot) Version() uint64 { return s.version }

// Degree returns the out-degree of v.
func (s *Snapshot) Degree(v graph.VertexID) int { return s.flat.Degree(v) }

// ForEachOut calls f(dst, w) for every out-edge of v in ascending
// destination order.
func (s *Snapshot) ForEachOut(v graph.VertexID, f func(dst graph.VertexID, w graph.Weight)) {
	dsts, ws := s.flat.OutSpan(v)
	for i, d := range dsts {
		f(d, ws[i])
	}
}

// HasEdge reports whether arc v→u exists and returns its weight.
func (s *Snapshot) HasEdge(v, u graph.VertexID) (graph.Weight, bool) {
	if int(v) >= s.n {
		return 0, false
	}
	dsts, ws := s.flat.OutSpan(v)
	if i, ok := sort.Find(len(dsts), func(i int) int { return int(u) - int(dsts[i]) }); ok {
		return ws[i], true
	}
	return 0, false
}

// OutNeighbors returns a copy of the adjacency of v (sorted by
// destination).
func (s *Snapshot) OutNeighbors(v graph.VertexID) ([]graph.VertexID, []graph.Weight) {
	dsts, ws := s.flat.OutSpan(v)
	return append([]graph.VertexID(nil), dsts...), append([]graph.Weight(nil), ws...)
}

// CSR copies the snapshot into a static CSR graph (for oracles and
// baselines that want arrays of their own).
func (s *Snapshot) CSR(directed bool) *graph.CSR {
	f := s.flat
	return &graph.CSR{Off: append([]int64(nil), f.off...), Adj: append([]graph.VertexID(nil), f.adj...),
		Wgt: append([]graph.Weight(nil), f.wgt...), N: s.n, Directed: directed}
}

// Graph is the versioned streaming graph. A single writer applies batches
// through InsertEdges and DeleteEdges; Acquire returns the latest
// immutable snapshot. The Graph holds a reference on the latest mirror —
// the next batch patches it — and drops it when a new version supersedes
// it, so retiring the latest snapshot never recycles it.
type Graph struct {
	mu       sync.Mutex // serializes writers
	latest   atomic.Pointer[Snapshot]
	directed bool
	// shared is the mirror-maintenance state (slab recycler, instruments,
	// fault seam) every mirror of this graph draws from.
	shared *flatShared
}

// New creates an empty streaming graph over n vertices. directed controls
// whether InsertEdges mirrors each edge.
func New(n int, directed bool) *Graph {
	g := &Graph{directed: directed, shared: newFlatShared()}
	offs := g.shared.takeOff(int64(n) + 1)
	clear(offs.off[:n+1]) // recycled slabs carry stale data
	f := newMirror(g.shared, offs, g.shared.takeArc(0), n, 0, nil, false)
	g.hold(f)
	g.latest.Store(&Snapshot{flat: f, n: n})
	return g
}

// FromEdges creates a streaming graph preloaded with edges (the "initial
// portion" of an edge stream).
func FromEdges(n int, edges []graph.Edge, directed bool) *Graph {
	g := New(n, directed)
	g.InsertEdges(edges)
	return g
}

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// Acquire returns the latest snapshot. The snapshot remains valid (and
// unchanged) regardless of subsequent batches.
func (g *Graph) Acquire() *Snapshot { return g.latest.Load() }

// InsertEdges applies one batch of edge insertions, producing and
// publishing a new version. It returns the new snapshot and the list of
// distinct source vertices whose adjacency changed — exactly the vertices
// incremental evaluation must re-activate (§2 of the paper). For
// undirected graphs the mirrored arcs' sources are included.
//
// Insertion is first-wins: re-inserting an existing arc is a no-op and its
// original weight is kept, as is the first of a pair the batch offers more
// than once. This keeps every insertion monotone, which is what lets
// converged query state be resumed incrementally.
func (g *Graph) InsertEdges(batch []graph.Edge) (*Snapshot, []graph.VertexID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	old := g.latest.Load()
	n := old.n
	for _, e := range batch {
		n = max(n, int(e.Src)+1, int(e.Dst)+1)
	}
	rec, changed := g.pick(old.flat, batch, false)
	return g.publish(old, n, rec, changed, false), changed
}

// DeleteEdges removes a batch of arcs (and their mirrors on undirected
// graphs), publishing a new version. It returns the new snapshot and the
// distinct source vertices whose adjacency changed. Arcs that do not
// exist are ignored; weights are not compared.
//
// Deletions break the monotonicity that incremental resumption relies on,
// so consumers of converged query state must not resume after one — core
// trims the standing state instead (see core.System.ApplyDeletions). The
// published mirror records no insertion (Flat.InsertedArcs reports
// ok=false).
func (g *Graph) DeleteEdges(batch []graph.Edge) (*Snapshot, []graph.VertexID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	old := g.latest.Load()
	gone, changed := g.pick(old.flat, batch, true)
	return g.publish(old, old.n, gone, changed, true), changed
}

// pick sorts the batch by source (bySource) and keeps, for an
// insertion, the first offer of each pair prev does not hold, or, for a
// deletion, one offer of each pair it does. The kept arcs come back
// sorted by source and then destination, with the distinct sources among
// them.
func (g *Graph) pick(prev *Flat, batch []graph.Edge, present bool) ([]graph.Edge, []graph.VertexID) {
	arcs, sources, runs := g.bySource(batch)
	// Each source's run is filtered independently, its kept arcs compacted
	// at its front; kept[i] counts them.
	kept := make([]int, len(sources))
	parallel.For(len(sources), func(i int) {
		var dsts []graph.VertexID
		if int(sources[i]) < prev.n {
			dsts, _ = prev.OutSpan(sources[i])
		}
		run := arcs[runs[i]:runs[i+1]]
		k := 0
		for j, a := range run {
			if j > 0 && a.Dst == run[j-1].Dst {
				continue // a repeat: its first offer was decided already
			}
			at := sort.Search(len(dsts), func(x int) bool { return dsts[x] >= a.Dst })
			if (at < len(dsts) && dsts[at] == a.Dst) == present {
				run[k] = a
				k++
			}
			dsts = dsts[at:]
		}
		kept[i] = k
	})
	total := 0
	changed := sources[:0]
	for i, src := range sources {
		if kept[i] > 0 {
			total += copy(arcs[total:], arcs[runs[i]:runs[i]+kept[i]])
			changed = append(changed, src)
		}
	}
	return arcs[:total:total], changed
}

// publish makes the next version from old: old's mirror patched with rec
// (merged in, or taken out when out is set) over n vertices, its
// transpose, if old's mirror holds one, handed over and patched the same
// way. The Graph moves its reference from old's mirror to the new one.
func (g *Graph) publish(old *Snapshot, n int, rec []graph.Edge, changed []graph.VertexID, out bool) *Snapshot {
	sh, prev := g.shared, old.flat
	offs, arcs := patch(sh, prev, n, rec, out)
	version := old.version + 1
	record, insertion := rec, !out
	if out {
		record = nil
	}
	f := newMirror(sh, offs, arcs, n, version, record, insertion)
	g.hold(f)

	met := sh.metrics()
	if prev.NumEdges() == 0 {
		met.FullBuilds.Inc() // a load into an empty graph
	} else {
		met.DeltaBuilds.Inc()
	}
	// The record's arcs are the walked bytes; every parent arc, copied
	// with its run or merged into a changed span, is a copied one.
	met.WalkedBytes.Add(int64(len(rec)) * arcBytes)
	met.CopiedBytes.Add(prev.NumEdges()*arcBytes + int64(prev.n+1)*offEntryBytes)
	if sh.seam.skewDelta.Load() {
		skewFlat(f, changed)
	}
	if pt := prev.takeTransposed(); pt != nil {
		rev := graph.ReversedArcs(rec)
		f.t = patchTransposed(sh, pt, n, version, rev, out)
		pt.Release()
		if sh.seam.skewTranspose.Load() {
			heads, _ := sourceRuns(rev)
			skewFlat(f.t, heads)
		}
	}

	m := old.m + int64(len(rec))
	if out {
		m = old.m - int64(len(rec))
	}
	snap := &Snapshot{flat: f, n: n, m: m, version: version}
	g.latest.Store(snap)
	ledgerSuperseded(prev)
	prev.Release()
	return snap
}

// hold adds the Graph's reference to a mirror born with its snapshot's,
// for as long as the mirror is the latest.
func (g *Graph) hold(f *Flat) {
	f.refs.Add(1)
	ledgerBuilt(f)
}

// bySource groups a batch by source with one stable sort: it lists the
// batch's arcs, with their mirrors on an undirected graph, sorted by
// source and then destination, so a pair offered twice keeps its batch
// order, and splits them into runs (sourceRuns).
func (g *Graph) bySource(batch []graph.Edge) (arcs []graph.Edge, sources []graph.VertexID, runs []int) {
	size := len(batch)
	if !g.directed {
		size *= 2
	}
	arcs = make([]graph.Edge, 0, size)
	for _, e := range batch {
		arcs = append(arcs, e)
		if !g.directed {
			arcs = append(arcs, graph.Edge{Src: e.Dst, Dst: e.Src, W: e.W})
		}
	}
	graph.SortArcs(arcs)
	sources, runs = sourceRuns(arcs)
	return arcs, sources, runs
}

// sourceRuns splits arcs, sorted by source, into runs: sources are the
// distinct sources, ascending, and sources[i]'s arcs are
// arcs[runs[i]:runs[i+1]].
func sourceRuns(arcs []graph.Edge) (sources []graph.VertexID, runs []int) {
	for i, a := range arcs {
		if i == 0 || a.Src != arcs[i-1].Src {
			sources = append(sources, a.Src)
			runs = append(runs, i)
		}
	}
	return sources, append(runs, len(arcs))
}
