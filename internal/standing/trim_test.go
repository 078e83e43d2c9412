package standing_test

import (
	"testing"

	"tripoline/internal/engine"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/oracle"
	"tripoline/internal/props"
	"tripoline/internal/standing"
	"tripoline/internal/streamgraph"
)

// storedArcs lists the arcs of snap that keep selects, at their stored
// weights — the form UpdateDeletions' witness test needs.
func storedArcs(snap *streamgraph.Snapshot, keep func(src, dst graph.VertexID) bool) []graph.Edge {
	var arcs []graph.Edge
	for v := 0; v < snap.NumVertices(); v++ {
		src := graph.VertexID(v)
		dsts, ws := snap.Flatten().OutSpan(src)
		for i, dst := range dsts {
			if keep(src, dst) {
				arcs = append(arcs, graph.Edge{Src: src, Dst: dst, W: ws[i]})
			}
		}
	}
	return arcs
}

// TestUpdateDeletionsMatchesRebuild checks the trimmed recovery against
// the from-scratch oracle for minimizing and maximizing problems, on
// directed (with reverse state) and undirected graphs, over three
// deletion batches: a mixed slice of the edge list; every arc into a
// root, which taints that root's whole in-neighbourhood in the reversed
// state; and the arcs into a sink, which on the directed graph taint
// nothing there (the sink reaches no root, so no reversed value derives
// through it).
func TestUpdateDeletionsMatchesRebuild(t *testing.T) {
	const n, sink = 141, 140
	roots := []graph.VertexID{2, 40, 99}
	edges := gen.Uniform(sink, 1300, 8, 91)
	for _, src := range []graph.VertexID{5, 40, 77} {
		edges = append(edges, graph.Edge{Src: src, Dst: sink, W: 3})
	}
	batches := map[string]func(src, dst graph.VertexID) bool{
		"mixed":         func(src, dst graph.VertexID) bool { return (src+dst)%9 == 0 },
		"into a root":   func(src, dst graph.VertexID) bool { return dst == roots[0] },
		"into the sink": func(src, dst graph.VertexID) bool { return dst == sink },
	}
	for _, directed := range []bool{true, false} {
		for _, p := range []engine.Problem{props.SSSP{}, props.SSWP{}, props.SSR{}} {
			for name, keep := range batches {
				g := streamgraph.New(n, directed)
				g.InsertEdges(edges)
				m := standing.New(p, g.Acquire().Flatten(), roots, directed)

				del := storedArcs(g.Acquire(), keep)
				snap, _ := g.DeleteEdges(del)
				m.UpdateDeletions(snap.Flatten(), del, !directed)

				csr := snap.CSR(directed)
				for k, r := range roots {
					want := oracle.BestPath(csr, p, r)
					for v := 0; v < n; v++ {
						if m.Forward.Value(graph.VertexID(v), k) != want[v] {
							t.Fatalf("%s directed=%v, %s: trimmed forward root %d vertex %d = %d, want %d",
								p.Name(), directed, name, r, v, m.Forward.Value(graph.VertexID(v), k), want[v])
						}
					}
					if directed {
						wantRev := oracle.BestPathTo(csr, p, r)
						for v := 0; v < n; v++ {
							if m.Reverse.Value(graph.VertexID(v), k) != wantRev[v] {
								t.Fatalf("%s, %s: trimmed reverse root %d vertex %d = %d, want %d",
									p.Name(), name, r, v, m.Reverse.Value(graph.VertexID(v), k), wantRev[v])
							}
						}
					}
				}
			}
		}
	}
}

// TestTrimLeavesTrueFixpoint audits the trimmed state with the engine's
// edge-sweep convergence checker — independent of the oracle comparison —
// in both directions.
func TestTrimLeavesTrueFixpoint(t *testing.T) {
	edges := gen.Uniform(120, 1100, 8, 93)
	g := streamgraph.New(120, true)
	g.InsertEdges(edges)
	m := standing.New(props.SSNP{}, g.Acquire().Flatten(), []graph.VertexID{1, 60}, true)
	del := edges[50:150]
	snap, _ := g.DeleteEdges(del)
	flat := snap.Flatten()
	m.UpdateDeletions(flat, del, false)
	if vs := m.Forward.CheckConverged(flat, 4); len(vs) != 0 {
		t.Fatalf("forward state not a fixpoint after trim: %+v", vs)
	}
	// The reversed state is the forward state of the transposed graph.
	if vs := m.Reverse.CheckConverged(flat.Transposed(), 4); len(vs) != 0 {
		t.Fatalf("reverse state not a fixpoint of the transposed graph after trim: %+v", vs)
	}
}

// TestUpdateDeletionsRootEdgeCut deletes the only edge out of a root,
// which taints (almost) everything downstream including other roots.
func TestUpdateDeletionsRootEdgeCut(t *testing.T) {
	// Path 0→1→2→3→4 with root at 0 and 2.
	var edges []graph.Edge
	for v := graph.VertexID(0); v < 4; v++ {
		edges = append(edges, graph.Edge{Src: v, Dst: v + 1, W: 1})
	}
	g := streamgraph.New(5, true)
	g.InsertEdges(edges)
	m := standing.New(props.BFS{}, g.Acquire().Flatten(), []graph.VertexID{0, 2}, true)

	del := []graph.Edge{{Src: 0, Dst: 1, W: 1}}
	snap, _ := g.DeleteEdges(del)
	m.UpdateDeletions(snap.Flatten(), del, false)

	// Root 0 now reaches nothing; root 2 still reaches 3, 4.
	if m.Forward.Value(1, 0) != props.Unreached || m.Forward.Value(4, 0) != props.Unreached {
		t.Fatalf("root 0 still reaches: %d %d", m.Forward.Value(1, 0), m.Forward.Value(4, 0))
	}
	if m.Forward.Value(0, 0) != 0 {
		t.Fatal("root 0 lost its own value")
	}
	if m.Forward.Value(4, 1) != 2 {
		t.Fatalf("root 2 level to 4 = %d, want 2", m.Forward.Value(4, 1))
	}
}

// TestUpdateDeletionsIsCheaperThanRebuild checks the point of trimming:
// on a localized deletion the trimmed recovery touches (activates) far
// fewer vertex evaluations than a full rebuild.
func TestUpdateDeletionsIsCheaperThanRebuild(t *testing.T) {
	cfg := gen.Config{Name: "t", LogN: 12, AvgDegree: 10, Directed: true, Seed: 7}
	edges := gen.RMAT(cfg)
	g := streamgraph.New(cfg.N(), true)
	g.InsertEdges(edges)
	roots := []graph.VertexID{1, 2, 3, 4}

	// Delete arcs out of a low-degree leaf region: find a vertex with
	// out-degree 1 and delete that arc.
	snap0 := g.Acquire()
	var del []graph.Edge
	for v := 0; v < cfg.N() && len(del) < 3; v++ {
		if dsts, ws := snap0.Flatten().OutSpan(graph.VertexID(v)); len(dsts) == 1 {
			del = append(del, graph.Edge{Src: graph.VertexID(v), Dst: dsts[0], W: ws[0]})
		}
	}
	if len(del) == 0 {
		t.Skip("no degree-1 vertices in this instance")
	}

	mTrim := standing.New(props.SSSP{}, g.Acquire().Flatten(), roots, true)
	mFull := standing.New(props.SSSP{}, g.Acquire().Flatten(), roots, true)
	snap, _ := g.DeleteEdges(del)

	trimStats := mTrim.UpdateDeletions(snap.Flatten(), del, false)
	fullStats := mFull.Rebuild(snap.Flatten())

	for k := range roots {
		for v := 0; v < cfg.N(); v++ {
			if mTrim.Forward.Value(graph.VertexID(v), k) != mFull.Forward.Value(graph.VertexID(v), k) {
				t.Fatalf("trim/rebuild disagree at slot %d vertex %d", k, v)
			}
		}
	}
	// The trimmed push starts from the tainted region's boundary, so its
	// propagation work (updates) must be far smaller than a rebuild's.
	if trimStats.Updates*2 >= fullStats.Updates {
		t.Fatalf("trimming saved too little: %d vs %d updates",
			trimStats.Updates, fullStats.Updates)
	}
}
