package standing_test

import (
	"testing"

	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/props"
	"tripoline/internal/standing"
	"tripoline/internal/streamgraph"
)

func TestWeightedRootsWithoutHistoryIsTopDegree(t *testing.T) {
	g := streamgraph.New(5, true)
	g.InsertEdges([]graph.Edge{
		{Src: 0, Dst: 1, W: 1}, {Src: 0, Dst: 2, W: 1}, {Src: 0, Dst: 3, W: 1},
		{Src: 1, Dst: 2, W: 1}, {Src: 1, Dst: 3, W: 1},
		{Src: 2, Dst: 3, W: 1},
	})
	got := standing.WeightedRoots(g.Acquire(), nil, 2)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("roots=%v, want top-degree [0 1]", got)
	}
	// Empty (non-nil) histogram behaves identically.
	got2 := standing.WeightedRoots(g.Acquire(), standing.NewQueryHistogram(), 2)
	for i := range got {
		if got[i] != got2[i] {
			t.Fatal("empty histogram changed selection")
		}
	}
}

func TestWeightedRootsFollowsQueryMass(t *testing.T) {
	// Hub 0 dominates by degree; queries hammer the far vertex 9, whose
	// only neighbor is 8. With enough mass, 9/8 must enter the root set.
	var edges []graph.Edge
	for v := graph.VertexID(1); v <= 7; v++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: v, W: 1})
	}
	edges = append(edges, graph.Edge{Src: 9, Dst: 8, W: 1})
	g := streamgraph.New(10, true)
	g.InsertEdges(edges)

	hist := standing.NewQueryHistogram()
	for i := 0; i < 100; i++ {
		hist.Observe(9)
	}
	if hist.Total() != 100 {
		t.Fatalf("total=%d", hist.Total())
	}
	roots := standing.WeightedRoots(g.Acquire(), hist, 2)
	found := false
	for _, r := range roots {
		if r == 9 || r == 8 {
			found = true
		}
	}
	if !found {
		t.Fatalf("roots=%v ignore the query hotspot at 9", roots)
	}
}

func TestWeightedRootsClampsK(t *testing.T) {
	g := streamgraph.New(3, true)
	g.InsertEdges([]graph.Edge{{Src: 0, Dst: 1, W: 1}})
	if got := standing.WeightedRoots(g.Acquire(), nil, 10); len(got) != 3 {
		t.Fatalf("len=%d", len(got))
	}
}

func TestWeightedRootsImproveHotspotQueries(t *testing.T) {
	// End-to-end: with a query hotspot far from the hubs, history-aware
	// roots must give the hotspot queries a property(u,r) at least as
	// good as plain top-degree roots do.
	cfg := gen.Config{Name: "w", LogN: 11, AvgDegree: 6, Directed: false, Seed: 77}
	edges := gen.RMAT(cfg)
	g := streamgraph.New(cfg.N(), false)
	g.InsertEdges(edges)
	snap := g.Acquire()

	// Pick a low-degree hotspot vertex.
	hotspot := graph.VertexID(0)
	for v := 0; v < cfg.N(); v++ {
		if snap.Degree(graph.VertexID(v)) == 1 {
			hotspot = graph.VertexID(v)
			break
		}
	}
	hist := standing.NewQueryHistogram()
	for i := 0; i < 50; i++ {
		hist.Observe(hotspot)
	}

	propAt := func(roots []graph.VertexID) uint64 {
		m := standing.New(props.SSSP{}, snap.Flatten(), roots, false)
		_, prop := m.Select(hotspot)
		return prop
	}
	plain := propAt(standing.WeightedRoots(snap, nil, 4))
	aware := propAt(standing.WeightedRoots(snap, hist, 4))
	if aware > plain {
		t.Fatalf("history-aware roots give worse property(u,r): %d vs %d", aware, plain)
	}
}
