// Package streamgraph implements the streaming graph engine of Tripoline:
// an Aspen-like versioned graph built on purely functional C-trees
// (package ctree). Each version is an immutable Snapshot that any number
// of readers (query evaluations) may traverse while a single writer
// derives the next version by inserting a batch of weighted edges.
//
// The C-tree stores out-edges only (one-way representation). The paper's
// dual-model evaluation (§4.2) runs q⁻¹(r) by pulling over that
// representation to avoid an in-edge index; here the flat mirror a
// directed graph's standing sets evaluate over keeps a transposed mirror
// beside it instead (transpose.go), patched from batch to batch like the
// mirror itself, so q⁻¹(r) is a push too.
//
// The paper's streaming scenario is insert-only (growing graphs); this
// engine follows that and does not implement deletions.
package streamgraph

import (
	"sync"
	"sync/atomic"

	"tripoline/internal/ctree"
	"tripoline/internal/graph"
	"tripoline/internal/parallel"
)

// Snapshot is one immutable version of the graph. It is safe for
// concurrent use by any number of goroutines.
type Snapshot struct {
	table   ctree.VertexTable
	n       int
	m       int64
	version uint64

	// inserted records, on a snapshot published by InsertEdges, the arcs
	// that batch actually stored, sorted by source and then destination
	// (see Flat.InsertedArcs); insertion marks such a snapshot, whose
	// record may be empty. FlattenFrom merges it into the parent mirror.
	inserted  []graph.Edge
	insertion bool

	// flat is the lazily built flat-adjacency mirror of this version
	// (see Flatten/FlattenFrom). Built at most once per snapshot and
	// shared by all readers. Its backing slabs come from the graph-wide
	// recycler (shared) and are reclaimed when the mirror is retired
	// (RetireFlat) and every pinned reader has released it — a new batch
	// no longer just invalidates the mirror, it recycles it.
	flatOnce    sync.Once
	flat        *Flat
	flatBuilt   atomic.Bool
	flatRetired atomic.Bool
	shared      *flatShared
}

// NumVertices returns the number of vertices.
func (s *Snapshot) NumVertices() int { return s.n }

// NumEdges returns the number of stored arcs.
func (s *Snapshot) NumEdges() int64 { return s.m }

// Version returns the monotonically increasing version number (0 for the
// initial snapshot, +1 per applied batch).
func (s *Snapshot) Version() uint64 { return s.version }

// Degree returns the out-degree of v.
func (s *Snapshot) Degree(v graph.VertexID) int {
	return s.table.Get(int(v)).Size()
}

// ForEachOut calls f(dst, w) for every out-edge of v in ascending
// destination order. It is the store's tree walk, which CSR, Save and
// Partition read; evaluation reads a flat mirror (Flatten) through
// engine.ArcView instead.
func (s *Snapshot) ForEachOut(v graph.VertexID, f func(dst graph.VertexID, w graph.Weight)) {
	s.table.Get(int(v)).ForEach(func(e uint64) {
		f(ctree.Key(e), ctree.Payload(e))
	})
}

// HasEdge reports whether arc v→u exists and returns its weight.
func (s *Snapshot) HasEdge(v, u graph.VertexID) (graph.Weight, bool) {
	e, ok := s.table.Get(int(v)).Find(u)
	if !ok {
		return 0, false
	}
	return ctree.Payload(e), true
}

// OutNeighbors materializes the adjacency of v (sorted by destination).
func (s *Snapshot) OutNeighbors(v graph.VertexID) ([]graph.VertexID, []graph.Weight) {
	t := s.table.Get(int(v))
	adj := make([]graph.VertexID, 0, t.Size())
	wgt := make([]graph.Weight, 0, t.Size())
	t.ForEach(func(e uint64) {
		adj = append(adj, ctree.Key(e))
		wgt = append(wgt, ctree.Payload(e))
	})
	return adj, wgt
}

// CSR materializes the snapshot as a static CSR graph (for oracles and
// baselines that want flat arrays).
func (s *Snapshot) CSR(directed bool) *graph.CSR {
	off := make([]int64, s.n+1)
	parallel.For(s.n, func(v int) {
		off[v+1] = int64(s.Degree(graph.VertexID(v)))
	})
	for v := 0; v < s.n; v++ {
		off[v+1] += off[v]
	}
	adj := make([]graph.VertexID, off[s.n])
	wgt := make([]graph.Weight, off[s.n])
	parallel.For(s.n, func(v int) {
		i := off[v]
		s.ForEachOut(graph.VertexID(v), func(d graph.VertexID, w graph.Weight) {
			adj[i] = d
			wgt[i] = w
			i++
		})
	})
	return &graph.CSR{Off: off, Adj: adj, Wgt: wgt, N: s.n, Directed: directed}
}

// Graph is the versioned streaming graph. A single writer applies batches
// through InsertEdges; Acquire returns the latest immutable snapshot.
type Graph struct {
	mu       sync.Mutex // serializes writers
	latest   atomic.Pointer[Snapshot]
	directed bool
	// shared is the mirror-maintenance state (slab recycler +
	// instruments) every snapshot of this graph draws from.
	shared *flatShared
}

// New creates an empty streaming graph over n vertices. directed controls
// whether InsertEdges mirrors each edge.
func New(n int, directed bool) *Graph {
	g := &Graph{directed: directed, shared: newFlatShared()}
	snap := &Snapshot{table: ctree.NewVertexTable(n), n: n, shared: g.shared}
	g.latest.Store(snap)
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
// unchanged) regardless of subsequent insertions.
func (g *Graph) Acquire() *Snapshot { return g.latest.Load() }

// InsertEdges applies one batch of edge insertions, producing and
// publishing a new version. It returns the new snapshot and the list of
// distinct source vertices whose adjacency changed — exactly the vertices
// incremental evaluation must re-activate (§2 of the paper). For
// undirected graphs the mirrored arcs' sources are included.
//
// The stream is grow-only (the paper's scenario): re-inserting an
// existing arc is a no-op and its original weight is kept. This keeps
// every graph change monotone, which is what lets converged query state
// be resumed incrementally — a weight change would require KickStarter-
// style trimming, which is orthogonal to this work (§2).
func (g *Graph) InsertEdges(batch []graph.Edge) (*Snapshot, []graph.VertexID) {
	g.mu.Lock()
	defer g.mu.Unlock()

	old := g.latest.Load()

	arcs, sources, runs := g.bySource(batch)
	maxID := graph.VertexID(0)
	for _, e := range batch {
		maxID = max(maxID, e.Src, e.Dst)
	}
	n := old.n
	if int(maxID)+1 > n {
		n = int(maxID) + 1
	}
	table := old.table.Grow(n)

	// Each source's new edge tree is built independently. First-wins: arcs
	// already present (or repeated within the batch, which the sort left in
	// batch order) are skipped; kept[i] counts the ones source i took,
	// compacted in place at the front of its run.
	trees := make([]ctree.Tree, len(sources))
	kept := make([]int, len(sources))
	parallel.For(len(sources), func(i int) {
		t := table.Get(int(sources[i]))
		run := arcs[runs[i]:runs[i+1]]
		k := 0
		for _, a := range run {
			if _, exists := t.Find(a.Dst); exists {
				continue
			}
			t = t.Insert(ctree.Elem(a.Dst, a.W))
			run[k] = a
			k++
		}
		trees[i], kept[i] = t, k
	})
	// The record is the kept arcs, compacted to the front of arcs: sorted
	// by source, then destination. The table takes every changed tree in
	// one pass.
	total := 0
	idx := make([]int, 0, len(sources))
	actual := sources[:0]
	for i, src := range sources {
		if kept[i] == 0 {
			continue
		}
		total += copy(arcs[total:], arcs[runs[i]:runs[i]+kept[i]])
		trees[len(actual)] = trees[i]
		idx = append(idx, int(src))
		actual = append(actual, src)
	}
	inserted := arcs[:total:total]
	table = table.SetMany(idx, trees[:len(actual)])

	snap := &Snapshot{table: table, n: n, m: old.m + int64(total), version: old.version + 1,
		inserted: inserted, insertion: true, shared: g.shared}
	g.latest.Store(snap)
	return snap, actual
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
