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
	"tripoline/internal/triangle"
)

func TestNewEvaluatesAllRoots(t *testing.T) {
	edges := gen.Uniform(150, 1200, 8, 1)
	g := streamgraph.FromEdges(150, edges, false)
	snap := g.Acquire()
	roots := []graph.VertexID{2, 50, 99}
	m := standing.New(props.SSSP{}, snap.Flatten(), roots, false)
	if m.K() != 3 {
		t.Fatalf("K=%d", m.K())
	}
	csr := snap.CSR(false)
	for k, r := range roots {
		want := oracle.BestPath(csr, props.SSSP{}, r)
		for v := 0; v < 150; v++ {
			if m.Forward.Value(graph.VertexID(v), k) != want[v] {
				t.Fatalf("root %d vertex %d wrong", r, v)
			}
		}
	}
	if m.Reverse != nil {
		t.Fatal("undirected manager should not keep a reverse state")
	}
	if m.LastMaintain <= 0 {
		t.Fatal("maintenance time not recorded")
	}
}

func TestDirectedKeepsReverse(t *testing.T) {
	edges := gen.Uniform(120, 900, 8, 3)
	g := streamgraph.FromEdges(120, edges, true)
	snap := g.Acquire()
	roots := []graph.VertexID{5, 77}
	m := standing.New(props.SSSP{}, snap.Flatten(), roots, true)
	if m.Reverse == nil {
		t.Fatal("directed manager missing reverse state")
	}
	csr := snap.CSR(true)
	for k, r := range roots {
		want := oracle.BestPathTo(csr, props.SSSP{}, r)
		for v := 0; v < 120; v++ {
			if m.Reverse.Value(graph.VertexID(v), k) != want[v] {
				t.Fatalf("reverse root %d vertex %d: %d want %d",
					r, v, m.Reverse.Value(graph.VertexID(v), k), want[v])
			}
		}
	}
}

// TestDuplicateBatchDoesNoWork: a batch whose arcs all exist already
// (first-wins, so new weights are ignored) changes no adjacency, and
// Update must run no round at all — in particular no verification sweep
// of the reversed state, which stays bit-identical.
func TestDuplicateBatchDoesNoWork(t *testing.T) {
	edges := gen.Uniform(120, 900, 8, 3)
	g := streamgraph.FromEdges(120, edges, true)
	roots := []graph.VertexID{5, 77}
	m := standing.New(props.SSSP{}, g.Acquire().Flatten(), roots, true)
	before := m.Reverse.Clone()

	dup := append([]graph.Edge(nil), edges[100:160]...)
	for i := range dup {
		dup[i].W++
	}
	snap, changed := g.InsertEdges(dup)
	if len(changed) != 0 {
		t.Fatalf("an all-duplicate batch changed sources %v", changed)
	}
	if stats := m.Update(snap.Flatten(), changed); stats != (engine.Stats{}) {
		t.Fatalf("an all-duplicate batch did work: %+v", stats)
	}
	for v := 0; v < 120; v++ {
		for k := range roots {
			if got, want := m.Reverse.Value(graph.VertexID(v), k), before.Value(graph.VertexID(v), k); got != want {
				t.Fatalf("reverse value(%d,%d) moved: %d, was %d", v, k, got, want)
			}
		}
	}
}

// TestUpdateMatchesFreshEvaluation streams several batches and verifies
// the incrementally maintained standing state equals a from-scratch
// evaluation after every batch — for a minimizing and a maximizing
// problem, directed and undirected.
func TestUpdateMatchesFreshEvaluation(t *testing.T) {
	for _, directed := range []bool{true, false} {
		for _, p := range []engine.Problem{props.SSSP{}, props.SSWP{}} {
			edges := gen.Uniform(130, 1300, 8, 7)
			g := streamgraph.New(130, directed)
			g.InsertEdges(edges[:800])
			roots := []graph.VertexID{1, 9, 64}
			m := standing.New(p, g.Acquire().Flatten(), roots, directed)
			for i := 800; i < len(edges); i += 125 {
				snap, changed := g.InsertEdges(edges[i:min(i+125, len(edges))])
				m.Update(snap.Flatten(), changed)
				csr := snap.CSR(directed)
				for k, r := range roots {
					want := oracle.BestPath(csr, p, r)
					for v := 0; v < 130; v++ {
						if m.Forward.Value(graph.VertexID(v), k) != want[v] {
							t.Fatalf("%s directed=%v after batch at %d: root %d vertex %d = %d, want %d",
								p.Name(), directed, i, r, v,
								m.Forward.Value(graph.VertexID(v), k), want[v])
						}
					}
					if directed {
						wantRev := oracle.BestPathTo(csr, p, r)
						for v := 0; v < 130; v++ {
							if m.Reverse.Value(graph.VertexID(v), k) != wantRev[v] {
								t.Fatalf("%s reverse after batch at %d: root %d vertex %d wrong",
									p.Name(), i, r, v)
							}
						}
					}
				}
			}
		}
	}
}

func TestUpdateWithVertexGrowth(t *testing.T) {
	g := streamgraph.New(10, false)
	g.InsertEdges([]graph.Edge{{Src: 0, Dst: 1, W: 1}, {Src: 1, Dst: 2, W: 1}})
	m := standing.New(props.BFS{}, g.Acquire().Flatten(), []graph.VertexID{0}, false)
	snap, changed := g.InsertEdges([]graph.Edge{{Src: 2, Dst: 30, W: 1}})
	m.Update(snap.Flatten(), changed)
	if m.Forward.Value(30, 0) != 3 {
		t.Fatalf("level(30)=%d, want 3", m.Forward.Value(30, 0))
	}
}

func TestPropURUndirectedSymmetry(t *testing.T) {
	edges := gen.Uniform(100, 900, 8, 11)
	g := streamgraph.FromEdges(100, edges, false)
	m := standing.New(props.SSSP{}, g.Acquire().Flatten(), []graph.VertexID{4, 42}, false)
	u := graph.VertexID(17)
	got := m.PropURInto(nil, u)
	if got[0] != m.Forward.Value(u, 0) || got[1] != m.Forward.Value(u, 1) {
		t.Fatal("PropURInto must read the forward state on undirected graphs")
	}
}

func TestSelectPicksBestRoot(t *testing.T) {
	// Path graph 0-1-2-...-9; roots 0 and 8; user source 7 is closer to 8.
	var edges []graph.Edge
	for v := graph.VertexID(0); v < 9; v++ {
		edges = append(edges, graph.Edge{Src: v, Dst: v + 1, W: 1})
	}
	g := streamgraph.FromEdges(10, edges, false)
	m := standing.New(props.SSSP{}, g.Acquire().Flatten(), []graph.VertexID{0, 8}, false)
	slot, prop := m.Select(7)
	if slot != 1 || prop != 1 {
		t.Fatalf("selected slot %d prop %d, want slot 1 prop 1", slot, prop)
	}
}

// TestMeetDegenerateRoots covers the root lists Meet must cut down: a
// directed sink that reaches no root keeps no lane, so the meet writes
// the init value everywhere but at the source; a source that is itself a
// root keeps exactly its own lane; and a duplicated root and a root the
// source cannot reach are dropped.
func TestMeetDegenerateRoots(t *testing.T) {
	// 0→1→2→3→4→9 and 8→7: 9 is a sink, 7 is reached from 8 alone.
	edges := []graph.Edge{{Src: 0, Dst: 1, W: 1}, {Src: 1, Dst: 2, W: 1}, {Src: 2, Dst: 3, W: 1},
		{Src: 3, Dst: 4, W: 1}, {Src: 4, Dst: 9, W: 1}, {Src: 8, Dst: 7, W: 1}}
	g := streamgraph.FromEdges(10, edges, true)
	p := props.SSSP{}
	m := standing.New(p, g.Acquire().Flatten(), []graph.VertexID{0, 0, 2, 2, 7, 3}, true)
	src, stride, _ := m.Forward.StrideView(0)
	offOf := func(k int) int { _, _, off := m.Forward.StrideView(k); return off }

	lanes, slot, propUR := m.Meet(nil, 9)
	if len(lanes) != 0 || slot != 0 || propUR != p.InitValue() {
		t.Fatalf("sink: %d lanes, pick %d/%d; want none and slot 0 at init", len(lanes), slot, propUR)
	}
	dst := make([]uint64, 10) // zeros: SSSP's best value, not its init
	triangle.DeltaInitMeet(dst, 1, 0, p, 9, lanes, src, stride, 10)
	for x, v := range dst {
		if want := p.InitValue(); x == 9 && v != p.SourceValue() || x != 9 && v != want {
			t.Fatalf("sink: Δ[%d] = %d, want init everywhere but the source", x, v)
		}
	}

	lanes, slot, propUR = m.Meet(nil, 3)
	if len(lanes) != 1 || slot != 5 || propUR != p.SourceValue() || lanes[0].Off != offOf(5) {
		t.Fatalf("root source: lanes %v, pick %d/%d; want only root 3's own lane", lanes, slot, propUR)
	}

	// From 1: both copies of root 0 and root 7 are unreachable, the second
	// copy of root 2 ties with the first, and 3 lies behind 2.
	lanes, slot, propUR = m.Meet(nil, 1)
	if len(lanes) != 1 || slot != 2 || propUR != 1 || lanes[0] != (triangle.Lane{Off: offOf(2), PropUR: 1}) {
		t.Fatalf("from 1: lanes %v, pick %d/%d; want only the first root 2's lane", lanes, slot, propUR)
	}
}

func TestSelectedColumnProducesValidInit(t *testing.T) {
	edges := gen.Uniform(140, 1100, 8, 13)
	g := streamgraph.FromEdges(140, edges, false)
	snap := g.Acquire()
	m := standing.New(props.SSNP{}, snap.Flatten(), []graph.VertexID{3, 70}, false)
	u := graph.VertexID(33)
	p := props.SSNP{}
	slot, propUR := m.Select(u)
	init := triangle.DeltaInit(p, u, propUR, m.StandingColumn(slot))
	// Δ values must never be better than the true converged values.
	want := oracle.BestPath(snap.CSR(false), p, u)
	for v := range want {
		if p.Better(init[v], want[v]) {
			t.Fatalf("Δ init better than converged at %d: %d vs %d", v, init[v], want[v])
		}
	}
	if init[u] != p.SourceValue() {
		t.Fatal("source not seeded")
	}
}

func TestMaxWidthK64(t *testing.T) {
	edges := gen.Uniform(80, 700, 8, 17)
	g := streamgraph.FromEdges(80, edges, false)
	roots := make([]graph.VertexID, 64)
	for i := range roots {
		roots[i] = graph.VertexID(i)
	}
	m := standing.New(props.BFS{}, g.Acquire().Flatten(), roots, false)
	snap, changed := g.InsertEdges([]graph.Edge{{Src: 0, Dst: 79, W: 1}})
	m.Update(snap.Flatten(), changed)
	csr := snap.CSR(false)
	for _, k := range []int{0, 31, 63} {
		want := oracle.BestPath(csr, props.BFS{}, roots[k])
		for v := 0; v < 80; v++ {
			if m.Forward.Value(graph.VertexID(v), k) != want[v] {
				t.Fatalf("K=64 slot %d vertex %d wrong", k, v)
			}
		}
	}
}
