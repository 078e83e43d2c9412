package engine_test

import (
	"testing"

	"tripoline/internal/engine"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/oracle"
	"tripoline/internal/props"
	"tripoline/internal/streamgraph"
	"tripoline/internal/xrand"
)

// TestChangeDrivenPullMatchesOracle is the lock on the change-driven pull:
// nothing downstream can see an under-converged reversed state (a too-weak
// property(u, r) only weakens Δ-initialization, answers stay right), so
// every slot is held to the sequential oracle here. For every registered
// problem and width: a from-scratch (every vertex dirty) evaluation, then
// 20 insert batches each re-stabilized over a static CSR with InsertEdges'
// changed sources as the dirty set — and, on a second state, over the
// version's mirror with its recorded arcs through the arc round. Batches re-insert existing arcs at other weights, which first-wins
// insertion must ignore.
func TestChangeDrivenPullMatchesOracle(t *testing.T) {
	const n, preload, batches, batchEdges = 100, 300, 20, 20
	widths := []int{1, 5, 16, 64}
	if testing.Short() {
		widths = []int{1, 5, 64}
	}
	edges := gen.Uniform(n, preload+batches*batchEdges, 16, 83)
	rng := xrand.New(89)
	for name, p := range props.Registry() {
		for _, k := range widths {
			sources := pickSources(n, k, rng)
			g := streamgraph.New(n, true)
			snap, _ := g.InsertEdges(edges[:preload])
			csr := snap.CSR(true)
			byDirty, _ := engine.RunReverse(csr, p, sources)
			requireOracle(t, name+" from scratch", byDirty, csr, sources, oracle.BestPathTo)
			byArcs := byDirty.Clone()

			for b := 0; b < batches; b++ {
				lo := preload + b*batchEdges
				batch := append([]graph.Edge(nil), edges[lo:lo+batchEdges]...)
				for i := 0; i < 3; i++ {
					old := edges[rng.Intn(lo)]
					old.W = graph.Weight(1 + rng.Intn(16))
					batch = append(batch, old)
				}
				snap, changed := g.InsertEdges(batch)
				csr = snap.CSR(true)
				var stats engine.Stats
				byDirty.RunPull(csr, changed, &stats)
				mirror := snap.Flatten()
				arcs, _ := mirror.InsertedArcs()
				byArcs.RunPullArcs(mirror, arcs, &stats)
				requireOracle(t, name+" after batch", byDirty, csr, sources, oracle.BestPathTo)
				requireSameValues(t, name+" after batch dirty-vs-arcs", byDirty, byArcs, n, k)
			}
		}
	}
}

// TestPullWorkIsBoundedByTheChange pins the two ends of the cost model:
// nothing dirty is no work at all, and a change that improves nothing is
// round 0 alone.
func TestPullWorkIsBoundedByTheChange(t *testing.T) {
	const n, k = 200, 16
	// Vertex n is a sink: it reaches no root, so arcs into it improve
	// nothing.
	edges := gen.Uniform(n, 1800, 16, 97)
	g := graph.FromEdges(n+1, edges, true)
	sources := pickSources(n, k, xrand.New(101))
	st, _ := engine.RunReverse(g, props.SSSP{}, sources)
	want := st.Clone()

	var stats engine.Stats
	st.RunPull(g, nil, &stats)
	if stats != (engine.Stats{}) {
		t.Fatalf("empty dirty list did work: %+v", stats)
	}

	dirty := []graph.VertexID{3, 40, 41, 199}
	var degSum int64
	for _, v := range dirty {
		edges = append(edges, graph.Edge{Src: v, Dst: n, W: 1})
	}
	g = graph.FromEdges(n+1, edges, true)
	for _, v := range dirty {
		degSum += int64(g.Degree(v))
	}
	st.RunPull(g, dirty, &stats)
	if stats.Iterations != 1 || stats.Updates != 0 {
		t.Fatalf("a change that improves nothing must stop after round 0: %+v", stats)
	}
	if stats.Activations != int64(k*len(dirty)) {
		t.Fatalf("round 0 activations = %d, want K·|dirty| = %d", stats.Activations, k*len(dirty))
	}
	if stats.Relaxations == 0 || stats.Relaxations > int64(k)*degSum {
		t.Fatalf("round 0 relaxations = %d, want in (0, K·Σdeg(dirty) = %d]", stats.Relaxations, int64(k)*degSum)
	}
	requireSameValues(t, "no-op change", st, want, n+1, k)
}
