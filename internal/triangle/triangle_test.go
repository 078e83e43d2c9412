package triangle_test

import (
	"fmt"
	"testing"

	"tripoline/internal/engine"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/oracle"
	"tripoline/internal/props"
	"tripoline/internal/standing"
	"tripoline/internal/triangle"
	"tripoline/internal/xrand"
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

// TestDeltaInitStridedMatchesColumn locks the one Δ-init loop, over one
// lane, to the column it replaces: read in place out of a width-K
// standing state's storage, it writes exactly what DeltaInit computes
// from that slot's copied column — for every problem, width, slot and
// source position — into a contiguous destination and into slots 0 and
// 8 of a width-9 state, whose other slots it must leave untouched.
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

						lane := []triangle.Lane{{Off: srcOff, PropUR: propUR}}
						flat := make([]uint64, n)
						triangle.DeltaInitMeet(flat, 1, 0, p, u, lane, src, srcStride, n)
						check("stride-1 destination", flat)

						for _, j := range []int{0, 8} {
							arr, stride, off := wide.StrideView(j)
							triangle.DeltaInitMeet(arr, stride, off, p, u, lane, src, srcStride, n)
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

// TestDeltaInitMeetMatchesReference locks the query path's Δ-init — the
// lanes standing.Manager.Meet keeps, met by DeltaInitMeet's devirtualized
// loop — to a scalar meet over all K standing columns through the
// Problem interface, bit for bit, and holds every Δ value to ROADMAP
// 1(b)'s invariant: never strictly better than the converged answer, from
// which the Δ-seeded run must reach that answer exactly. It covers every
// problem on directed and undirected R-MAT at K ∈ {1, 5, 12, 16} (12
// leaves padding lanes in the second slot block), writing into a
// contiguous destination and into slot 8 of a width-9 state.
func TestDeltaInitMeetMatchesReference(t *testing.T) {
	const logN = 10
	for _, directed := range []bool{true, false} {
		cfg := gen.Config{LogN: logN, AvgDegree: 4, Directed: directed, MaxWeight: 16, Seed: 11}
		g := graph.FromEdges(cfg.N(), gen.RMAT(cfg), directed)
		n := g.NumVertices()
		for name, p := range props.Registry() {
			for _, K := range []int{1, 5, 12, 16} {
				m := standing.New(p, g, standing.TopDegreeRoots(g, K), directed)
				cols := make([][]uint64, K)
				for k := range cols {
					cols[k] = m.StandingColumn(k)
				}
				src, srcStride, _ := m.Forward.StrideView(0)
				wide := engine.NewState(p, n, 9)
				for i := 0; i < 24; i++ {
					u := graph.VertexID(i * 379 % n)
					if i < K {
						u = m.Roots[i] // sources that are roots
					}
					label := fmt.Sprintf("%s directed=%v K=%d u=%d", name, directed, K, u)
					lanes, slot, propUR := m.Meet(nil, u)
					if wantSlot, wantProp := m.Select(u); slot != wantSlot || propUR != wantProp {
						t.Fatalf("%s: Meet reports pick %d/%d, Select %d/%d", label, slot, propUR, wantSlot, wantProp)
					}
					// A root source's own lane comes first and dominates every
					// other root's where no other root ties with its source
					// value (Viterbi's weight-1 paths and SSR's reached roots
					// do); on an undirected graph the best root's lane
					// dominates on the min/max problems, which keep one lane.
					minmax := name == "SSWP" || name == "SSNP" || name == "SSR"
					strict := name != "Viterbi" && name != "SSR"
					if (i < K && strict || !directed && minmax) && len(lanes) > 1 {
						t.Fatalf("%s: %d lanes kept, want at most 1", label, len(lanes))
					}

					prop := m.PropURInto(nil, u)
					want := make([]uint64, n)
					for x := range want {
						best := p.InitValue()
						for k := range cols {
							if c := p.Combine(prop[k], cols[k][x]); p.Better(c, best) {
								best = c
							}
						}
						want[x] = best
					}
					want[u] = p.SourceValue()

					got := make([]uint64, n)
					triangle.DeltaInitMeet(got, 1, 0, p, u, lanes, src, srcStride, n)
					arr, stride, off := wide.StrideView(8)
					triangle.DeltaInitMeet(arr, stride, off, p, u, lanes, src, srcStride, n)
					final := oracle.BestPath(g, p, u)
					for x := range want {
						if got[x] != want[x] {
							t.Fatalf("%s: meet[%d] = %d, all-K reference %d", label, x, got[x], want[x])
						}
						if p.Better(got[x], final[x]) {
							t.Fatalf("%s: Δ[%d] = %d is better than the converged %d", label, x, got[x], final[x])
						}
					}
					for x, v := range wide.Column(8) {
						if v != want[x] {
							t.Fatalf("%s: width-9 slot 8 [%d] = %d, want %d", label, x, v, want[x])
						}
					}

					st := &engine.State{P: p, K: 1, N: n, Values: got}
					st.RunPush(g, []graph.VertexID{u}, []uint64{1})
					for x := range final {
						if st.Values[x] != final[x] {
							t.Fatalf("%s: Δ-run[%d] = %d, full %d", label, x, st.Values[x], final[x])
						}
					}
				}
			}
		}
	}
}

// hidden is a props problem with its KernelSpec hidden, so the meet runs
// through the Problem interface.
type hidden struct{ engine.Problem }

// TestMeetCombineMatchesProblem locks the meet's devirtualized ⊕ and
// order for every spec kind to the Problem's Combine and Better, on the
// edge words (0, 1, Unreached, Unreached−1 and sums and products that
// overflow) and random words: one lane must write Combine(a, b), two
// lanes the better of two such terms. The interface loop of a problem
// with no spec is held to the same.
func TestMeetCombineMatchesProblem(t *testing.T) {
	words := []uint64{0, 1, 2, 3, props.Unreached, props.Unreached - 1, props.Unreached - 2,
		1 << 32, 1<<32 + 1, 1 << 63, 1<<63 + 5, 1<<62 + 1}
	rng := xrand.New(3)
	for i := 0; i < 24; i++ {
		words = append(words, rng.Uint64(), rng.Uint64()>>(rng.Uint64()%64))
	}
	problems := []engine.Problem{hidden{props.SSSP{}}, hidden{props.SSWP{}}}
	for _, name := range []string{"SSSP", "BFS", "SSWP", "SSNP", "Viterbi", "SSR"} {
		problems = append(problems, props.Registry()[name])
	}
	for _, p := range problems {
		if _, fused := engine.KernelSpecOf(p); !fused {
			if _, ok := p.(hidden); !ok {
				t.Fatalf("%s has no fused op", p.Name())
			}
		}
		for _, a := range words {
			for _, b := range words {
				got := []uint64{0}
				triangle.DeltaInitMeet(got, 1, 0, p, 1, []triangle.Lane{{Off: 0, PropUR: a}}, []uint64{b}, 1, 1)
				if want := p.Combine(a, b); got[0] != want {
					t.Fatalf("%s: ⊕(%#x, %#x) = %#x, Combine %#x", p.Name(), a, b, got[0], want)
				}
				c, d := words[(int(a%97)+int(b%89))%len(words)], b^a
				lanes := []triangle.Lane{{Off: 0, PropUR: a}, {Off: 1, PropUR: c}}
				triangle.DeltaInitMeet(got, 1, 0, p, 1, lanes, []uint64{b, d}, 2, 1)
				want := p.Combine(a, b)
				if alt := p.Combine(c, d); p.Better(alt, want) {
					want = alt
				}
				if got[0] != want {
					t.Fatalf("%s: meet of ⊕(%#x, %#x) and ⊕(%#x, %#x) = %#x, want %#x", p.Name(), a, b, c, d, got[0], want)
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
