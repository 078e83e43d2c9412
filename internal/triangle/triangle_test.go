package triangle_test

import (
	"testing"

	"tripoline/internal/engine"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/oracle"
	"tripoline/internal/props"
	"tripoline/internal/triangle"
)

// TestDeltaRunEqualsFullRun is the Theorem 4.4 check: seeding a monotonic
// async-safe evaluation with Δ(u,r) converges to exactly the same values
// as a from-scratch evaluation — for every problem, on random graphs, both
// directed and undirected, over several (u, r) choices.
func TestDeltaRunEqualsFullRun(t *testing.T) {
	for _, directed := range []bool{true, false} {
		for _, seed := range []uint64{1, 2} {
			g := graph.FromEdges(180, gen.Uniform(180, 1400, 16, seed), directed)
			for name, p := range props.Registry() {
				for _, pair := range [][2]graph.VertexID{{3, 0}, {40, 7}, {100, 100}, {0, 179}} {
					u, r := pair[0], pair[1]
					standing := oracle.BestPath(g, p, r) // property(r, x)
					var propUR uint64
					if directed {
						propUR = oracle.BestPathTo(g, p, r)[u] // property(u, r)
					} else {
						propUR = standing[u]
					}
					init := triangle.DeltaInit(p, u, propUR, standing)
					st := &engine.State{P: p, K: 1, N: len(init), Values: init}
					st.RunPush(g, []graph.VertexID{u}, []uint64{1})

					want := oracle.BestPath(g, p, u)
					for v := range want {
						if st.Values[v] != want[v] {
							t.Fatalf("%s directed=%v seed=%d u=%d r=%d: Δ-run[%d]=%d, full=%d",
								name, directed, seed, u, r, v, st.Values[v], want[v])
						}
					}
				}
			}
		}
	}
}

// TestDeltaSavesWork verifies the mechanism, not just correctness: on a
// connected undirected graph, Δ-based SSWP evaluation must touch far
// fewer vertices than the full evaluation (the §6.2 observation that
// min-max problems have near-total initial stability).
func TestDeltaSavesWork(t *testing.T) {
	g := graph.FromEdges(500, gen.Uniform(500, 6000, 16, 5), false)
	p := props.SSWP{}
	u, r := graph.VertexID(17), graph.VertexID(3)

	_, fullStats := engine.Run(g, p, []graph.VertexID{u})

	standing := oracle.BestPath(g, p, r)
	init := triangle.DeltaInit(p, u, standing[u], standing)
	st := &engine.State{P: p, K: 1, N: len(init), Values: init}
	deltaStats := st.RunPush(g, []graph.VertexID{u}, []uint64{1})

	if deltaStats.Activations*2 >= fullStats.Activations {
		t.Fatalf("Δ-based SSWP saved too little: %d vs %d activations",
			deltaStats.Activations, fullStats.Activations)
	}
}

func TestDeltaInitShape(t *testing.T) {
	p := props.SSSP{}
	standing := []uint64{5, 0, 7, props.Unreached}
	init := triangle.DeltaInit(p, 2, 10, standing)
	if init[0] != 15 || init[1] != 10 || init[3] != props.Unreached {
		t.Fatalf("init=%v", init)
	}
	if init[2] != p.SourceValue() {
		t.Fatalf("source slot = %d, want source value", init[2])
	}
}

func TestDeltaInitUnreachableRoot(t *testing.T) {
	// If property(u,r) is the init value, every Δ entry must degrade to
	// init — never an accidentally good value.
	p := props.SSSP{}
	standing := []uint64{1, 2, 3}
	init := triangle.DeltaInit(p, 0, p.InitValue(), standing)
	for i := 1; i < len(init); i++ {
		if init[i] != p.InitValue() {
			t.Fatalf("init[%d]=%d, want Unreached", i, init[i])
		}
	}
}

// TestDeltaInitStridedMatchesColumn locks the one Δ-init loop to the
// column it replaces: read in place out of a width-K standing state's
// storage, it writes exactly what DeltaInit computes from that slot's
// copied column — for every problem, width, slot and source position —
// into a contiguous destination and into slots 0 and 8 of a width-9
// state, whose other slots it must leave untouched.
func TestDeltaInitStridedMatchesColumn(t *testing.T) {
	const n = 5003 // more than one block, and not a multiple of 8
	for name, p := range props.Registry() {
		for _, K := range []int{1, 5, 8, 9, 16, 64} {
			st := engine.NewState(p, n, K)
			for v := 0; v < n; v++ {
				for k := 0; k < K; k++ {
					if (v+k)%5 != 0 {
						st.SetValue(graph.VertexID(v), k, uint64((v*31+k*7)%50))
					}
				}
			}
			wide := engine.NewState(p, n, 9)
			for k := 0; k < K; k++ {
				col := st.Column(k)
				src, srcStride, srcOff := st.StrideView(k)
				for _, u := range []graph.VertexID{0, n - 1, n} {
					for _, propUR := range []uint64{7, p.InitValue()} {
						want := make([]uint64, n)
						for x := range want {
							want[x] = p.Combine(propUR, col[x])
						}
						if u < n {
							want[u] = p.SourceValue()
						}
						check := func(what string, got []uint64) {
							t.Helper()
							for x := range want {
								if got[x] != want[x] {
									t.Fatalf("%s K=%d slot %d u=%d propUR=%d: %s[%d] = %d, want %d",
										name, K, k, u, propUR, what, x, got[x], want[x])
								}
							}
						}
						check("DeltaInit", triangle.DeltaInit(p, u, propUR, col))

						flat := make([]uint64, n)
						triangle.DeltaInitStrided(flat, 1, 0, p, u, propUR, src, srcStride, srcOff, n)
						check("stride-1 destination", flat)

						for _, j := range []int{0, 8} {
							arr, stride, off := wide.StrideView(j)
							triangle.DeltaInitStrided(arr, stride, off, p, u, propUR, src, srcStride, srcOff, n)
						}
						check("width-9 slot 0", wide.Column(0))
						check("width-9 slot 8", wide.Column(8))
					}
				}
			}
			for j := 1; j < 8; j++ {
				for x, v := range wide.Column(j) {
					if v != p.InitValue() {
						t.Fatalf("%s K=%d: writing slots 0 and 8 changed slot %d at %d", name, K, j, x)
					}
				}
			}
		}
	}
}

func TestHolds(t *testing.T) {
	p := props.SSSP{}
	if !triangle.Holds(p, 3, 4, 7) {
		t.Fatal("3+4 ≥ 7 must hold")
	}
	if !triangle.Holds(p, 3, 4, 5) {
		t.Fatal("3+4 ≥ 5 must hold")
	}
	if triangle.Holds(p, 3, 4, 8) {
		t.Fatal("3+4 ≥ 8 must not hold")
	}
}

func TestSelectStanding(t *testing.T) {
	p := props.SSSP{}
	slot, val := triangle.SelectStanding(p, []uint64{9, 2, 5})
	if slot != 1 || val != 2 {
		t.Fatalf("selected %d/%d", slot, val)
	}
	// Maximizing problems pick the largest.
	w := props.SSWP{}
	slot, val = triangle.SelectStanding(w, []uint64{9, 2, 5})
	if slot != 0 || val != 9 {
		t.Fatalf("SSWP selected %d/%d", slot, val)
	}
	// All-unreachable candidates fall back to slot 0.
	slot, val = triangle.SelectStanding(p, []uint64{props.Unreached, props.Unreached})
	if slot != 0 || val != props.Unreached {
		t.Fatalf("fallback %d/%d", slot, val)
	}
}
