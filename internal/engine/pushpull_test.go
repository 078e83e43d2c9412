package engine_test

import (
	"testing"

	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/props"
	"tripoline/internal/xrand"
)

// Property: on a symmetric (undirected) graph, the push-based
// sparse/dense hybrid and the from-scratch (every vertex dirty) pull
// converge to the identical fixpoint for every registered problem, any
// source set, and any K. The relaxation lattice has a unique fixpoint,
// so the comparison is exact — bit for bit, including Viterbi's
// float-encoded probabilities (each value is a product accumulated in
// path order, which neither schedule changes).
//
// Undirected is required, not a convenience: RunPull improves a vertex
// from its *out*-neighbors' values, which on a directed graph computes
// the reverse problem (that is what RunReverse is for).
func TestPushPullEquivalenceProperty(t *testing.T) {
	type shape struct {
		n, m int // m edges before mirroring
		seed uint64
	}
	shapes := []shape{
		{40, 60, 1},    // sparse, disconnected pieces
		{120, 300, 2},  // moderate
		{200, 2400, 3}, // dense enough to trip the dense frontier
		{64, 64, 4},    // tree-ish
	}
	if testing.Short() {
		shapes = shapes[:2]
	}
	var sawDense, sawPureSparse bool
	for _, sh := range shapes {
		g := randomCSR(sh.n, sh.m, false, sh.seed)
		rng := xrand.New(sh.seed * 7919)
		for name, p := range props.Registry() {
			k := 1 + rng.Intn(3)
			sources := make([]graph.VertexID, k)
			for i := range sources {
				sources[i] = graph.VertexID(rng.Intn(sh.n))
			}

			push, stats, err := engine.RunCtx(t.Context(), g, p, sources)
			if err != nil {
				t.Fatalf("%s: push: %v", name, err)
			}
			if stats.DenseIterations > 0 {
				sawDense = true
			} else if stats.Iterations > 0 {
				sawPureSparse = true
			}

			pull := engine.NewState(p, sh.n, k)
			for i, s := range sources {
				pull.SetSource(s, i)
			}
			var pullStats engine.Stats
			pull.RunPullAll(g, &pullStats)

			for v := 0; v < sh.n; v++ {
				for j := 0; j < k; j++ {
					if pv, lv := push.Value(graph.VertexID(v), j), pull.Value(graph.VertexID(v), j); pv != lv {
						t.Fatalf("%s n=%d seed=%d k=%d sources=%v: value(%d,%d) push=%#x pull=%#x",
							name, sh.n, sh.seed, k, sources, v, j, pv, lv)
					}
				}
			}
		}
	}
	// The property is only convincing if both frontier representations
	// actually ran.
	if !sawDense {
		t.Error("no push run ever used the dense representation")
	}
	if !sawPureSparse {
		t.Error("no push run stayed purely sparse")
	}
}
