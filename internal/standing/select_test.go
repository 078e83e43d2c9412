package standing_test

import (
	"runtime"
	"testing"

	"tripoline/internal/engine"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/props"
	"tripoline/internal/standing"
	"tripoline/internal/streamgraph"
	"tripoline/internal/triangle"
)

func TestWeightedRootsWithoutHistoryIsTopDegree(t *testing.T) {
	g := streamgraph.New(5, true)
	g.InsertEdges([]graph.Edge{
		{Src: 0, Dst: 1, W: 1}, {Src: 0, Dst: 2, W: 1}, {Src: 0, Dst: 3, W: 1},
		{Src: 1, Dst: 2, W: 1}, {Src: 1, Dst: 3, W: 1},
		{Src: 2, Dst: 3, W: 1},
	})
	got := standing.WeightedRoots(g.Acquire().Flatten(), nil, 2)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("roots=%v, want top-degree [0 1]", got)
	}
	// Empty (non-nil) histogram behaves identically.
	got2 := standing.WeightedRoots(g.Acquire().Flatten(), standing.NewQueryHistogram(), 2)
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
	roots := standing.WeightedRoots(g.Acquire().Flatten(), hist, 2)
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
	if got := standing.WeightedRoots(g.Acquire().Flatten(), nil, 10); len(got) != 3 {
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
	plain := propAt(standing.WeightedRoots(snap.Flatten(), nil, 4))
	aware := propAt(standing.WeightedRoots(snap.Flatten(), hist, 4))
	if aware > plain {
		t.Fatalf("history-aware roots give worse property(u,r): %d vs %d", aware, plain)
	}
}

// TestSelectBeatsWorstRoot: Δ-initializing from Select's slot (Eq. 15's
// best property(u,r)) leaves less propagation than Δ-initializing from the
// slot with the worst property(u,r), counted as vertex activations summed
// over the sampled sources, and both converge to the from-scratch answer.
// On one processor the push kernels are deterministic, so the counts are
// exact. The inequality is strict: equal totals would mean the choice of
// root made no difference on a graph where it plainly does.
func TestSelectBeatsWorstRoot(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := gen.Config{Name: "sel", LogN: 12, AvgDegree: 8, Directed: true, Seed: 15}
	g := streamgraph.New(cfg.N(), true)
	g.InsertEdges(gen.RMAT(cfg))
	snap := g.Acquire()
	view := snap.Flatten()
	var sources []graph.VertexID
	for v := 1; v < cfg.N() && len(sources) < 32; v += 41 {
		if snap.Degree(graph.VertexID(v)) > 2 {
			sources = append(sources, graph.VertexID(v))
		}
	}
	if len(sources) < 24 {
		t.Fatalf("only %d sampled sources", len(sources))
	}
	for _, p := range []engine.Problem{props.SSSP{}, props.SSWP{}} {
		m := standing.New(p, view, standing.WeightedRoots(view, nil, 8), true)
		run := func(u graph.VertexID, slot int, propUR uint64) (*engine.State, int64) {
			init := triangle.DeltaInit(p, u, propUR, m.StandingColumn(slot))
			st := &engine.State{P: p, K: 1, N: len(init), Values: init}
			return st, st.RunPush(view, []graph.VertexID{u}, []uint64{1}).Activations
		}
		var bestActs, worstActs int64
		for _, u := range sources {
			full, _ := engine.Run(view, p, []graph.VertexID{u})
			pu := m.PropURInto(nil, u)
			worst := 0
			for k := range pu {
				if p.Better(pu[worst], pu[k]) {
					worst = k
				}
			}
			slot, propUR := m.Select(u)
			best, acts := run(u, slot, propUR)
			bestActs += acts
			bad, acts := run(u, worst, pu[worst])
			worstActs += acts
			for v := range full.Values {
				if best.Values[v] != full.Values[v] || bad.Values[v] != full.Values[v] {
					t.Fatalf("%s(%d) at %d: best-root %d, worst-root %d, full %d",
						p.Name(), u, v, best.Values[v], bad.Values[v], full.Values[v])
				}
			}
		}
		t.Logf("%s: %d activations from Select's roots, %d from the worst roots over %d sources",
			p.Name(), bestActs, worstActs, len(sources))
		if bestActs >= worstActs {
			t.Fatalf("%s: Select's roots activate %d vertices, the worst roots %d", p.Name(), bestActs, worstActs)
		}
	}
}
