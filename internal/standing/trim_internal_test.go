package standing

import (
	"testing"

	"tripoline/internal/engine"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/props"
	"tripoline/internal/streamgraph"
)

// TestReverseRepairIsChangeDriven observes the reversed half of
// UpdateDeletions on its own (the returned Stats fold the forward repair
// in): deleting arcs no reversed value derives through must taint
// nothing, run no pull round and leave the state untouched, while
// deleting a witness arc must cost rounds.
func TestReverseRepairIsChangeDriven(t *testing.T) {
	const n, sink = 121, 120
	edges := gen.Uniform(sink, 1000, 8, 95)
	sinkArcs := []graph.Edge{{Src: 7, Dst: sink, W: 2}, {Src: 60, Dst: sink, W: 5}}
	g := streamgraph.New(n, true)
	g.InsertEdges(append(edges, sinkArcs...))
	m := New(props.SSSP{}, g.Acquire().Flatten(), []graph.VertexID{1, 60, 99}, true)
	before := m.Reverse.Clone()

	next, _ := g.DeleteEdges(sinkArcs)
	snap := next.Flatten()
	taint := m.taintReverse(snap, sinkArcs, false)
	if taint != nil {
		t.Fatalf("arcs into a sink tainted the reversed state: %v", taint)
	}
	if stats := m.repairReverse(snap, taint); stats != (engine.Stats{}) {
		t.Fatalf("an empty dirty set did pull work: %+v", stats)
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
	snap.ForEachOut(7, func(d graph.VertexID, w graph.Weight) {
		del = append(del, graph.Edge{Src: 7, Dst: d, W: w})
	})
	next, _ = g.DeleteEdges(del)
	snap = next.Flatten()
	taint = m.taintReverse(snap, del, false)
	if taint == nil || taint[7] == 0 {
		t.Fatalf("deleting every out-arc of vertex 7 did not taint it: %v", taint)
	}
	if stats := m.repairReverse(snap, taint); stats.Iterations == 0 {
		t.Fatal("a tainted vertex cost no pull round")
	}
	for k := range m.Roots {
		if got := m.Reverse.Value(7, k); got != props.Unreached {
			t.Fatalf("vertex 7 has no out-arcs but reverse value(7,%d) = %d", k, got)
		}
	}
}
