package streamgraph

import (
	"sort"

	"tripoline/internal/ctree"
	"tripoline/internal/graph"
	"tripoline/internal/parallel"
)

// DeleteEdges removes a batch of arcs (and their mirrors on undirected
// graphs), publishing a new version. It returns the new snapshot and the
// distinct source vertices whose adjacency changed. Arcs that do not
// exist are ignored.
//
// Deletions are an extension beyond the paper's growing-graph scenario
// (§2 defers them to KickStarter-style trimming). They break the
// monotonicity that incremental resumption relies on, so consumers of
// converged query state must NOT resume after a deletion — the core
// system recomputes affected standing queries from scratch instead
// (see core.System.ApplyDeletions).
func (g *Graph) DeleteEdges(batch []graph.Edge) (*Snapshot, []graph.VertexID) {
	g.mu.Lock()
	defer g.mu.Unlock()

	old := g.latest.Load()

	arcs, sources, runs := g.bySource(batch)
	// Sources past the vertex range hold no arcs to remove.
	sources = sources[:sort.Search(len(sources), func(i int) bool { return int(sources[i]) >= old.n })]

	table := old.table
	trees := make([]ctree.Tree, len(sources))
	removed := make([]int64, len(sources))
	parallel.For(len(sources), func(i int) {
		t := table.Get(int(sources[i]))
		for _, a := range arcs[runs[i]:runs[i+1]] {
			var ok bool
			if t, ok = t.Remove(a.Dst); ok {
				removed[i]++
			}
		}
		trees[i] = t
	})

	m := old.m
	idx := make([]int, 0, len(sources))
	actual := sources[:0]
	for i, src := range sources {
		if removed[i] == 0 {
			continue
		}
		trees[len(actual)] = trees[i]
		idx = append(idx, int(src))
		m -= removed[i]
		actual = append(actual, src)
	}
	table = table.SetMany(idx, trees[:len(actual)])

	snap := &Snapshot{table: table, n: old.n, m: m, version: old.version + 1, shared: g.shared}
	g.latest.Store(snap)
	return snap, actual
}
