package engine_test

import (
	"testing"

	"tripoline/internal/engine"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/oracle"
	"tripoline/internal/props"
)

// star builds a hub with n-1 leaves — one BFS iteration activates the
// entire graph at once, forcing the dense frontier representation.
func star(n int) *graph.CSR {
	edges := make([]graph.Edge, 0, 2*(n-1))
	for v := graph.VertexID(1); int(v) < n; v++ {
		edges = append(edges,
			graph.Edge{Src: 0, Dst: v, W: 1},
			graph.Edge{Src: v, Dst: 0, W: 1})
	}
	return graph.FromEdges(n, edges, true)
}

func TestDenseFrontierStarGraph(t *testing.T) {
	g := star(10_000)
	st, stats := engine.Run(g, props.BFS{}, []graph.VertexID{0})
	if st.Values[0] != 0 {
		t.Fatal("source level wrong")
	}
	for v := 1; v < g.N; v++ {
		if st.Values[v] != 1 {
			t.Fatalf("leaf %d level %d", v, st.Values[v])
		}
	}
	// One iteration for the hub, one for the (dense) leaf frontier.
	if stats.Iterations != 2 {
		t.Fatalf("iterations=%d, want 2", stats.Iterations)
	}
	if stats.Activations != int64(g.N) {
		t.Fatalf("activations=%d, want %d", stats.Activations, g.N)
	}
}

// TestDenseSparseEquivalence compares engine results on graphs whose
// frontier oscillates across the density threshold against the oracle.
func TestDenseSparseEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4} {
		cfg := gen.Config{Name: "d", LogN: 12, AvgDegree: 14, Directed: false, Seed: seed}
		g := graph.FromEdges(cfg.N(), gen.RMAT(cfg), false)
		for name, p := range props.Registry() {
			st, _ := engine.Run(g, p, []graph.VertexID{1})
			want := oracle.BestPath(g, p, 1)
			for v := range want {
				if st.Values[v] != want[v] {
					t.Fatalf("%s seed=%d: dense/sparse run wrong at %d", name, seed, v)
				}
			}
		}
	}
}

// TestEngineDeterminism: the converged values must be identical across
// repeated parallel runs (the schedule varies; the fixpoint must not).
func TestEngineDeterminism(t *testing.T) {
	cfg := gen.Config{Name: "d", LogN: 12, AvgDegree: 14, Directed: true, Seed: 9}
	g := graph.FromEdges(cfg.N(), gen.RMAT(cfg), true)
	ref, _ := engine.Run(g, props.SSSP{}, []graph.VertexID{5})
	for rep := 0; rep < 5; rep++ {
		st, _ := engine.Run(g, props.SSSP{}, []graph.VertexID{5})
		for v := range ref.Values {
			if st.Values[v] != ref.Values[v] {
				t.Fatalf("rep %d: nondeterministic value at %d", rep, v)
			}
		}
	}
}

// TestDenseModeWithBatchMasks runs a K-wide dense-frontier evaluation
// and checks each slot independently.
func TestDenseModeWithBatchMasks(t *testing.T) {
	g := star(5_000)
	sources := []graph.VertexID{0, 1, 2, 3}
	st, _ := engine.Run(g, props.BFS{}, sources)
	for k, src := range sources {
		want := oracle.BestPath(g, props.BFS{}, src)
		for v := 0; v < g.N; v++ {
			if st.Value(graph.VertexID(v), k) != want[v] {
				t.Fatalf("slot %d vertex %d wrong", k, v)
			}
		}
	}
}

// TestWidth1RepeatedAndZeroSeeds: a width-1 run seeded with repeated
// vertices and zero masks — what a subscription's catch-up passes when it
// accumulates the changed vertices of several batches — converges to the
// oracle at both forced frontier representations, activates each seed
// once and seeds nothing from a zero mask.
func TestWidth1RepeatedAndZeroSeeds(t *testing.T) {
	g := randomCSR(300, 2400, true, 107)
	const src = graph.VertexID(4)
	// 0 → 1 → 2 → 3, and 4 → 0 from a vertex that is seeded only with a
	// zero mask: BFS from 0 activates exactly 0..3, once each.
	path := graph.FromEdges(5, []graph.Edge{{Src: 0, Dst: 1, W: 1}, {Src: 1, Dst: 2, W: 1}, {Src: 2, Dst: 3, W: 1}, {Src: 4, Dst: 0, W: 1}}, true)
	for _, mode := range []struct {
		name     string
		fraction int
	}{
		{"sparse", 1},      // count*1 > n never holds: every round runs a list
		{"dense", 1 << 20}, // every nonempty round walks the membership bits
	} {
		t.Run(mode.name, func(t *testing.T) {
			old := *engine.DenseFractionForTest
			*engine.DenseFractionForTest = mode.fraction
			defer func() { *engine.DenseFractionForTest = old }()
			for name, p := range props.Registry() {
				st := engine.NewState(p, g.N, 1)
				st.SetSource(src, 0)
				stats := st.RunPush(g, []graph.VertexID{src, 9, src, 17, src}, []uint64{1, 0, 1, 0, 1})
				want := oracle.BestPath(g, p, src)
				for v := range want {
					if st.Values[v] != want[v] {
						t.Fatalf("%s: value[%d] = %d, want %d", name, v, st.Values[v], want[v])
					}
				}
				if dense := stats.DenseIterations > 0; dense != (mode.name == "dense") {
					t.Fatalf("%s: %d of %d iterations dense in the %s mode", name, stats.DenseIterations, stats.Iterations, mode.name)
				}
			}

			st := engine.NewState(props.BFS{}, path.N, 1)
			st.SetSource(0, 0)
			stats := st.RunPush(path, []graph.VertexID{0, 4, 0, 0}, []uint64{1, 0, 1, 1})
			if stats.Activations != 4 || stats.Iterations != 4 {
				t.Fatalf("activations=%d iterations=%d, want 4/4", stats.Activations, stats.Iterations)
			}
			if st.Values[3] != 3 || st.Values[4] != props.Unreached {
				t.Fatalf("levels %v", st.Values)
			}
			if stats := st.RunPush(path, []graph.VertexID{4, 4}, []uint64{0, 0}); stats.Iterations != 0 {
				t.Fatalf("zero-mask seeds ran %d iterations", stats.Iterations)
			}
		})
	}
}
