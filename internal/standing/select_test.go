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
		m := standing.New(p, view, standing.TopDegreeRoots(view, 8), true)
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
