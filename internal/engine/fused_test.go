package engine_test

import (
	"context"
	"sync"
	"testing"

	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/oracle"
	"tripoline/internal/props"
	"tripoline/internal/xrand"
)

func pickSources(n, k int, rng *xrand.RNG) []graph.VertexID {
	sources := make([]graph.VertexID, k)
	for i := range sources {
		sources[i] = graph.VertexID(rng.Intn(n))
	}
	return sources
}

// requireSameValues compares two states element-wise through the
// layout-independent accessor. The relaxation lattice has a unique
// fixpoint, so the comparison is exact.
func requireSameValues(t *testing.T, label string, a, b *engine.State, n, k int) {
	t.Helper()
	for v := 0; v < n; v++ {
		for j := 0; j < k; j++ {
			av, bv := a.Value(graph.VertexID(v), j), b.Value(graph.VertexID(v), j)
			if av != bv {
				t.Fatalf("%s: value(%d,%d) %#x vs %#x", label, v, j, av, bv)
			}
		}
	}
}

// requireOracle holds every slot of st to the sequential oracle's answer
// for that slot's source (ref is oracle.BestPath for push evaluations,
// oracle.BestPathTo for reversed ones).
func requireOracle(t *testing.T, label string, st *engine.State, g *graph.CSR, sources []graph.VertexID,
	ref func(*graph.CSR, engine.Problem, graph.VertexID) []uint64) {
	t.Helper()
	for j, s := range sources {
		for v, want := range ref(g, st.P, s) {
			if got := st.Value(graph.VertexID(v), j); got != want {
				t.Fatalf("%s slot %d (source %d): value(%d) %#x, oracle %#x", label, j, s, v, got, want)
			}
		}
	}
}

// TestFusedWidthSweepEquivalence is the kernels' correctness spine: for
// every registered problem and K ∈ {1,2,4,7,9,16,64}, the width-K
// evaluation must be bit-identical to (a) the sequential oracle, slot by
// slot, and (b) K independent K=1 evaluations — and over the transposed
// graph to the oracle's backward evaluation, which is how the reversed
// standing queries run. 2, 4 and 7 are one block narrower than a cache
// line, 9 is a full block plus a padded one.
func TestFusedWidthSweepEquivalence(t *testing.T) {
	const n, m = 300, 3000
	g := randomCSR(n, m, true, 61)
	gt := g.Transpose()
	widths := []int{1, 2, 4, 7, 9, 16, 64}
	if testing.Short() {
		widths = []int{1, 4, 7, 64}
	}
	rng := xrand.New(67)
	for name, p := range props.Registry() {
		for _, k := range widths {
			sources := pickSources(n, k, rng)

			fused, _ := engine.Run(g, p, sources)
			requireOracle(t, name+" push", fused, g, sources, oracle.BestPath)

			for j, s := range sources {
				single, _ := engine.Run(g, p, []graph.VertexID{s})
				for v := 0; v < n; v++ {
					if fv, sv := fused.Value(graph.VertexID(v), j), single.Value(graph.VertexID(v), 0); fv != sv {
						t.Fatalf("%s K=%d slot %d: push value(%d) fused=%#x single=%#x",
							name, k, j, v, fv, sv)
					}
				}
			}

			// The reversed queries are the same push over the transposed graph.
			rev, _ := engine.Run(gt, p, sources)
			requireOracle(t, name+" reverse", rev, g, sources, oracle.BestPathTo)
		}
	}
}

// TestFusedForcedRepresentations pins the frontier representation to
// each side of the Ligra-style switch and checks the width-K kernel
// against the oracle on both, so neither the sparse member list nor the
// dense membership-bit walk hides behind the heuristic.
func TestFusedForcedRepresentations(t *testing.T) {
	const n, m, k = 256, 2600, 16
	g := randomCSR(n, m, true, 71)
	rng := xrand.New(73)
	sources := pickSources(n, k, rng)

	for _, mode := range []struct {
		name     string
		fraction int
	}{
		{"sparse", 1},      // count*1 > n almost never: stays sparse
		{"dense", 1 << 20}, // count*2^20 > n from the first superstep on
	} {
		t.Run(mode.name, func(t *testing.T) {
			oldFrac := *engine.DenseFractionForTest
			*engine.DenseFractionForTest = mode.fraction
			defer func() { *engine.DenseFractionForTest = oldFrac }()

			fused, fusedStats := engine.Run(g, props.SSSP{}, sources)
			requireOracle(t, mode.name, fused, g, sources, oracle.BestPath)

			if mode.name == "dense" && fusedStats.DenseIterations == 0 {
				t.Fatal("forced-dense run recorded no dense iterations")
			}
			if mode.name == "sparse" && fusedStats.DenseIterations != 0 {
				t.Fatalf("forced-sparse run recorded %d dense iterations", fusedStats.DenseIterations)
			}
			if fusedStats.Hoists == 0 {
				t.Fatal("fused run recorded no register-block hoists")
			}
		})
	}
}

// spanView is an ArcView whose spans share no backing array: every
// vertex's arcs are a slice of their own, as over the shard router's union
// of S mirrors. A kernel that indexed spans through global arc offsets
// instead of walking OutSpan would read the wrong arcs here.
type spanView struct {
	*graph.CSR
	adj [][]graph.VertexID
	wgt [][]graph.Weight
}

func newSpanView(g *graph.CSR) *spanView {
	sv := &spanView{CSR: g, adj: make([][]graph.VertexID, g.N), wgt: make([][]graph.Weight, g.N)}
	for v := range sv.adj {
		dsts, ws := g.OutSpan(graph.VertexID(v))
		sv.adj[v] = append([]graph.VertexID(nil), dsts...)
		sv.wgt[v] = append([]graph.Weight(nil), ws...)
	}
	return sv
}

func (sv *spanView) OutSpan(v graph.VertexID) ([]graph.VertexID, []graph.Weight) {
	return sv.adj[v], sv.wgt[v]
}

// TestFusedDenseSeparateSpans forces every superstep dense and runs every
// registered problem at width 16 over a CSR and over a view whose spans
// live in separate arrays, against the oracle. The dense round walks each
// member's span through OutSpan alone, so split spans must evaluate
// exactly like one CSR.
func TestFusedDenseSeparateSpans(t *testing.T) {
	const n, m, k = 400, 6000, 16
	g := randomCSR(n, m, true, 79)
	rng := xrand.New(83)
	sources := pickSources(n, k, rng)

	oldFrac := *engine.DenseFractionForTest
	*engine.DenseFractionForTest = 1 << 20 // force dense supersteps
	defer func() { *engine.DenseFractionForTest = oldFrac }()

	for view, av := range map[string]engine.ArcView{"csr": g, "spans": newSpanView(g)} {
		for name, p := range props.Registry() {
			fused, stats := engine.Run(av, p, sources)
			requireOracle(t, name+" dense over "+view, fused, g, sources, oracle.BestPath)
			if stats.DenseIterations == 0 {
				t.Fatalf("%s over %s: forced-dense run recorded no dense iterations", name, view)
			}
		}
	}
}

// TestFusedStatsSurface checks the kernel counters flow into Stats and
// through Add, so the server metrics and bench reports can trust them.
func TestFusedStatsSurface(t *testing.T) {
	a := engine.Stats{Hoists: 1, GateSkips: 2}
	a.Add(engine.Stats{Hoists: 10, GateSkips: 20})
	if a.Hoists != 11 || a.GateSkips != 22 {
		t.Fatalf("Add dropped kernel counters: %+v", a)
	}

	g := randomCSR(128, 1024, true, 89)
	_, stats := engine.Run(g, props.BFS{}, pickSources(128, 8, xrand.New(97)))
	if stats.Hoists == 0 {
		t.Fatal("width-8 fused run recorded no hoists")
	}
}

// TestConcurrentPushSharedState pins RunPushCtx's concurrency contract: S
// goroutines may call it at once on one width-16 state, each over its own
// arc partition of the graph. Every value word is only ever CAS-improved,
// so re-seeding each round from the vertices that moved, until nothing
// moves, must land every slot on the union graph's fixpoint.
func TestConcurrentPushSharedState(t *testing.T) {
	const n, m, k, shards = 300, 3000, 16, 4
	union := randomCSR(n, m, true, 101)
	// Deal the union's (deduplicated) arcs round-robin into the partitions.
	own := make([][]graph.Edge, shards)
	for v, i := 0, 0; v < n; v++ {
		adj, wgt := union.OutSpan(graph.VertexID(v))
		for j, d := range adj {
			own[i%shards] = append(own[i%shards], graph.Edge{Src: graph.VertexID(v), Dst: d, W: wgt[j]})
			i++
		}
	}
	parts := make([]*graph.CSR, shards)
	for i := range parts {
		parts[i] = graph.FromEdges(n, own[i], true)
	}
	sources := pickSources(n, k, xrand.New(103))
	sources[k-1] = sources[0] // one source shared by two slots

	for name, p := range props.Registry() {
		st := engine.NewState(p, n, k)
		for j, s := range sources {
			st.SetSource(s, j)
		}
		seeds, masks := engine.SourceSeeds(sources)
		for len(seeds) > 0 {
			prev := st.Clone()
			var wg sync.WaitGroup
			for _, part := range parts {
				wg.Add(1)
				go func(part *graph.CSR) {
					defer wg.Done()
					if _, err := st.RunPushCtx(context.Background(), part, seeds, masks); err != nil {
						t.Errorf("%s: %v", name, err)
					}
				}(part)
			}
			wg.Wait()
			seeds, masks = seeds[:0], masks[:0]
			for v := 0; v < n; v++ {
				var moved uint64
				for j := 0; j < k; j++ {
					if st.Value(graph.VertexID(v), j) != prev.Value(graph.VertexID(v), j) {
						moved |= 1 << uint(j)
					}
				}
				if moved != 0 {
					seeds = append(seeds, graph.VertexID(v))
					masks = append(masks, moved)
				}
			}
		}
		requireOracle(t, name+" shared-state", st, union, sources, oracle.BestPath)
	}
}
