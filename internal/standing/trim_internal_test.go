package standing

import (
	"testing"

	"tripoline/internal/engine"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/oracle"
	"tripoline/internal/props"
	"tripoline/internal/streamgraph"
)

// TestReverseRepairIsChangeDriven observes the reversed half of
// UpdateDeletions on its own (the returned Stats fold the forward repair
// in): deleting arcs no reversed value derives through must taint nothing,
// run no round and leave the state untouched, while deleting a witness arc
// must repair from the tainted region's boundary — fewer relaxations than
// the graph has arcs, so no whole-graph sweep — to the oracle's values,
// which only the transposed view produces.
func TestReverseRepairIsChangeDriven(t *testing.T) {
	const n, sink = 121, 120
	edges := gen.Uniform(sink, 1000, 8, 95)
	sinkArcs := []graph.Edge{{Src: 7, Dst: sink, W: 2}, {Src: 60, Dst: sink, W: 5}}
	g := streamgraph.New(n, true)
	g.InsertEdges(append(edges, sinkArcs...))
	m := New(props.SSSP{}, g.Acquire().Flatten(), []graph.VertexID{1, 60, 99}, true)
	before := m.Reverse.Clone()

	next, _ := g.DeleteEdges(sinkArcs)
	if stats := m.trimReverse(next.Flatten(), sinkArcs, false); stats != (engine.Stats{}) {
		t.Fatalf("arcs into a sink cost reverse repair work: %+v", stats)
	}
	for v := 0; v < n; v++ {
		for k := range m.Roots {
			if got, want := m.Reverse.Value(graph.VertexID(v), k), before.Value(graph.VertexID(v), k); got != want {
				t.Fatalf("reverse value(%d,%d) moved: %d, was %d", v, k, got, want)
			}
		}
	}

	// Every arc out of a vertex that reaches the roots: its reversed
	// values derive through one of them.
	var del []graph.Edge
	next.ForEachOut(7, func(d graph.VertexID, w graph.Weight) {
		del = append(del, graph.Edge{Src: 7, Dst: d, W: w})
	})
	next, _ = g.DeleteEdges(del)
	flat := next.Flatten()
	stats := m.trimReverse(flat, del, false)
	if stats.Iterations == 0 {
		t.Fatal("a witness deletion cost no round")
	}
	if stats.Relaxations >= flat.NumEdges() {
		t.Fatalf("the repair relaxed %d arcs of a %d-arc graph", stats.Relaxations, flat.NumEdges())
	}
	csr := next.CSR(true)
	for k, r := range m.Roots {
		for v, want := range oracle.BestPathTo(csr, m.Problem, r) {
			if got := m.Reverse.Value(graph.VertexID(v), k); got != want {
				t.Fatalf("slot %d (root %d): reverse value(%d) = %d, oracle %d", k, r, v, got, want)
			}
		}
	}
	if got := m.Reverse.Value(7, 0); got != props.Unreached {
		t.Fatalf("vertex 7 has no out-arcs but reverse value(7,0) = %d", got)
	}
}
