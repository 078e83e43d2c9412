package engine

// In-package tests for the frontier representation switch and the scratch
// pool. They live inside the package (rather than
// engine_test) to pin denseFraction and observe the per-iteration
// representation via the onIteration hook; props would be an import
// cycle here, so they use a minimal min-plus problem of their own.

import (
	"errors"
	"runtime"
	"testing"

	"tripoline/internal/graph"
)

// minPlus is a BFS/SSSP-like toy problem: minimize the sum of weights.
type minPlus struct{}

const mpUnreached = ^uint64(0)

func (minPlus) Name() string        { return "minPlus" }
func (minPlus) InitValue() uint64   { return mpUnreached }
func (minPlus) SourceValue() uint64 { return 0 }
func (minPlus) Relax(srcVal uint64, w graph.Weight) (uint64, bool) {
	if srcVal == mpUnreached {
		return 0, false
	}
	return srcVal + uint64(w), true
}
func (minPlus) Better(a, b uint64) bool    { return a < b }
func (minPlus) Combine(a, b uint64) uint64 { return a + b }

// burstGraph is a path that fans out and back in:
//
//	0 → 1 → {2..burst+1} → burst+2 → burst+3
//
// With n vertices and the default denseFraction, the frontier sizes per
// iteration are 1, burst, 1, 1 — sparse, dense, sparse, sparse — so one
// evaluation crosses the representation switch in both directions.
func burstGraph(n, burst int) *graph.CSR {
	var edges []graph.Edge
	edges = append(edges, graph.Edge{Src: 0, Dst: 1, W: 1})
	for i := 0; i < burst; i++ {
		mid := graph.VertexID(2 + i)
		edges = append(edges, graph.Edge{Src: 1, Dst: mid, W: 1})
		edges = append(edges, graph.Edge{Src: mid, Dst: graph.VertexID(2 + burst), W: 1})
	}
	edges = append(edges, graph.Edge{Src: graph.VertexID(2 + burst), Dst: graph.VertexID(3 + burst), W: 1})
	return graph.FromEdges(n, edges, true)
}

// allArcs lists every arc of g, sorted by source.
func allArcs(g *graph.CSR) []graph.Edge {
	var arcs []graph.Edge
	for v := 0; v < g.NumVertices(); v++ {
		dsts, ws := g.OutSpan(graph.VertexID(v))
		for i, d := range dsts {
			arcs = append(arcs, graph.Edge{Src: graph.VertexID(v), Dst: d, W: ws[i]})
		}
	}
	return arcs
}

func runMinPlus(g ArcView, n int) (*State, Stats) {
	st := NewState(minPlus{}, n, 1)
	st.SetSource(0, 0)
	stats := st.RunPush(g, []graph.VertexID{0}, []uint64{1})
	return st, stats
}

func TestDenseSparseSwitchBothWays(t *testing.T) {
	const n, burst = 256, 64 // burst*denseFraction > n > 1*denseFraction
	g := burstGraph(n, burst)

	var trace []bool
	onIteration = func(dense bool) { trace = append(trace, dense) }
	defer func() { onIteration = nil }()

	st, stats := runMinPlus(g, n)

	if stats.DenseIterations == 0 || stats.DenseIterations >= stats.Iterations {
		t.Fatalf("want a mix of representations, got %d dense of %d iterations",
			stats.DenseIterations, stats.Iterations)
	}
	// The evaluation must cross sparse→dense and dense→sparse.
	var up, down bool
	for i := 1; i < len(trace); i++ {
		if !trace[i-1] && trace[i] {
			up = true
		}
		if trace[i-1] && !trace[i] {
			down = true
		}
	}
	if !up || !down {
		t.Fatalf("switch did not cross both ways: trace=%v", trace)
	}

	// A forced-sparse evaluation of the same query must agree exactly.
	onIteration = nil
	old := denseFraction
	denseFraction = 1 // count*1 > n is impossible: always sparse
	defer func() { denseFraction = old }()
	sp, spStats := runMinPlus(g, n)
	if spStats.DenseIterations != 0 {
		t.Fatalf("forced-sparse run used %d dense iterations", spStats.DenseIterations)
	}
	for v := range st.Values {
		if st.Values[v] != sp.Values[v] {
			t.Fatalf("vertex %d: mixed=%d forced-sparse=%d", v, st.Values[v], sp.Values[v])
		}
	}
}

func TestPushScratchPoolReuse(t *testing.T) {
	const n, burst = 256, 64
	g := burstGraph(n, burst)
	arcs := allArcs(g)
	evaluations := []struct {
		name     string
		k        int
		evaluate func()
	}{
		{"push", 1, func() { runMinPlus(g, n) }},
		// A state holding only its source is a fixpoint of the graph without
		// any of its arcs, so every arc may be handed to the arc round: it
		// improves the first hop and the push carries on from there.
		{"push-arcs", 1, func() {
			st := NewState(minPlus{}, n, 1)
			st.SetSource(0, 0)
			if stats := st.RunPushArcs(g, arcs); st.Values[3+burst] != 4 || stats.Iterations < 2 {
				t.Fatalf("push-arcs: value(%d)=%d after %d rounds", 3+burst, st.Values[3+burst], stats.Iterations)
			}
		}},
		// Width 4 from four sources: the burst's round is dense, and the
		// slot masks ride along with the membership bits.
		{"push-k4", 4, func() {
			st, _ := Run(g, minPlus{}, []graph.VertexID{0, 1, 2, 0})
			if st.Value(3+burst, 0) != 4 || st.Value(3+burst, 2) != 2 {
				t.Fatalf("push-k4: value(%d) = %d/%d", 3+burst, st.Value(3+burst, 0), st.Value(3+burst, 2))
			}
		}},
	}
	for _, e := range evaluations {
		// Empty the pool (two collections empty it on every P; draining
		// it with Get would miss what sits in another P's private slot),
		// then verify a run leaves reusable, fully drained scratch behind.
		runtime.GC()
		runtime.GC()
		e.evaluate()

		f, _ := frontierPool.Get().(*frontier)
		if f == nil {
			t.Skip("pool evicted the scratch (GC ran); nothing to verify")
		}
		if f.next.Len() != n || f.cur.Len() != n {
			t.Fatalf("%s: pooled bitsets sized %d/%d, want %d", e.name, f.next.Len(), f.cur.Len(), n)
		}
		if f.next.Count() != 0 || f.cur.Count() != 0 {
			t.Fatalf("%s: pooled bitsets hold %d/%d set bits", e.name, f.next.Count(), f.cur.Count())
		}
		for i := range f.counters {
			if q := f.counters[i].queue; len(q) != 0 {
				t.Fatalf("%s: worker %d's pooled queue holds %v", e.name, i, q)
			}
		}
		// A width-1 run's scratch is the bitsets and the queues: no
		// per-vertex word anywhere.
		if e.k == 1 && (f.masks != nil || f.nextMasks != nil) {
			t.Fatalf("%s: a width-1 run allocated slot masks", e.name)
		}
		if e.k > 1 {
			if len(f.masks) != n || len(f.nextMasks) != n {
				t.Fatalf("%s: pooled masks sized %d/%d, want %d", e.name, len(f.masks), len(f.nextMasks), n)
			}
			for i := 0; i < n; i++ {
				if f.masks[i] != 0 || f.nextMasks[i] != 0 {
					t.Fatalf("%s: pooled masks dirty at %d: masks=%d next=%d", e.name, i, f.masks[i], f.nextMasks[i])
				}
			}
		}
		frontierPool.Put(f)
	}

	// A smaller graph must reuse the larger buffers; results unchanged.
	small := burstGraph(64, 8)
	st, _ := runMinPlus(small, 64)
	if st.Values[1] != 1 || st.Values[10] != 3 || st.Values[11] != 4 {
		t.Fatalf("reused-scratch run wrong: v1=%d v10=%d v11=%d",
			st.Values[1], st.Values[10], st.Values[11])
	}
}

// TestCanceledArcPushDropsScratch: an arc-seeded push canceled between its
// arc round and the first frontier superstep holds a live frontier in its
// scratch, so — like any canceled push — it must not hand the scratch back
// to the pool. The values it did reach are sound.
func TestCanceledArcPushDropsScratch(t *testing.T) {
	const n, burst = 256, 64
	g := burstGraph(n, burst)
	// Two collections empty the pool on every P; draining it with Get would
	// miss what sits in another P's private slot.
	runtime.GC()
	runtime.GC()
	st := NewState(minPlus{}, n, 1)
	st.SetSource(0, 0)
	// One consult lets the arc round run; the second, before the frontier
	// it produced is processed, cancels.
	stats, err := st.RunPushArcsCtx(NewConsultCtx(1), g, allArcs(g))
	var ce *CanceledError
	if !errors.As(err, &ce) || ce.Iterations != 1 || stats.Iterations != 1 {
		t.Fatalf("err = %v, stats = %+v: want cancellation after the arc round", err, stats)
	}
	// Runs later in the round may already see what earlier ones improved,
	// so how far the round got depends on scheduling; every value it set
	// is exact on this graph of unit weights and one path per vertex.
	exact := func(v int) uint64 {
		switch {
		case v <= 1:
			return uint64(v)
		case v < 2+burst:
			return 2
		default:
			return uint64(v - burst + 1)
		}
	}
	if st.Values[1] != 1 {
		t.Fatalf("the arc round left the first hop at %d", st.Values[1])
	}
	for v := 0; v < 4+burst; v++ {
		if got := st.Values[v]; got != mpUnreached && got != exact(v) {
			t.Fatalf("partial value(%d) = %d, want %d or unreached", v, got, exact(v))
		}
	}
	if f, _ := frontierPool.Get().(*frontier); f != nil {
		t.Fatal("a canceled arc-seeded push returned its live scratch to the pool")
	}
}
