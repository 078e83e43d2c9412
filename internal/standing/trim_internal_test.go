package standing

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"tripoline/internal/engine"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/oracle"
	"tripoline/internal/props"
	"tripoline/internal/streamgraph"
)

// TestReverseRepairIsChangeDriven observes the reversed half of
// UpdateDeletions on its own (the returned Stats fold the forward repair
// in): deleting arcs no reversed value derives through must taint nothing,
// run no round and leave the state untouched, while deleting a witness arc
// must repair from the tainted region's boundary — fewer relaxations than
// the graph has arcs, so no whole-graph sweep — to the oracle's values,
// which only the transposed view produces.
func TestReverseRepairIsChangeDriven(t *testing.T) {
	const n, sink = 121, 120
	edges := gen.Uniform(sink, 1000, 8, 95)
	sinkArcs := []graph.Edge{{Src: 7, Dst: sink, W: 2}, {Src: 60, Dst: sink, W: 5}}
	g := streamgraph.New(n, true)
	g.InsertEdges(append(edges, sinkArcs...))
	m := New(props.SSSP{}, g.Acquire().Flatten(), []graph.VertexID{1, 60, 99}, true)
	before := m.Reverse.Clone()

	next, _ := g.DeleteEdges(sinkArcs)
	if stats := m.trimReverse(next.Flatten(), sinkArcs, false); stats != (engine.Stats{}) {
		t.Fatalf("arcs into a sink cost reverse repair work: %+v", stats)
	}
	for v := 0; v < n; v++ {
		for k := range m.Roots {
			if got, want := m.Reverse.Value(graph.VertexID(v), k), before.Value(graph.VertexID(v), k); got != want {
				t.Fatalf("reverse value(%d,%d) moved: %d, was %d", v, k, got, want)
			}
		}
	}

	// Every arc out of a vertex that reaches the roots: its reversed
	// values derive through one of them.
	var del []graph.Edge
	dsts, ws := next.Flatten().OutSpan(7)
	for i, d := range dsts {
		del = append(del, graph.Edge{Src: 7, Dst: d, W: ws[i]})
	}
	next, _ = g.DeleteEdges(del)
	flat := next.Flatten()
	stats := m.trimReverse(flat, del, false)
	if stats.Iterations == 0 {
		t.Fatal("a witness deletion cost no round")
	}
	if stats.Relaxations >= flat.NumEdges() {
		t.Fatalf("the repair relaxed %d arcs of a %d-arc graph", stats.Relaxations, flat.NumEdges())
	}
	csr := next.CSR(true)
	for k, r := range m.Roots {
		for v, want := range oracle.BestPathTo(csr, m.Problem, r) {
			if got := m.Reverse.Value(graph.VertexID(v), k); got != want {
				t.Fatalf("slot %d (root %d): reverse value(%d) = %d, oracle %d", k, r, v, got, want)
			}
		}
	}
	if got := m.Reverse.Value(7, 0); got != props.Unreached {
		t.Fatalf("vertex 7 has no out-arcs but reverse value(7,0) = %d", got)
	}
}

// TestTaintMatchesReference holds taint, which propagates only the bits a
// vertex newly gained, to the whole-mask worklist it replaced, bit for
// bit: every standing problem, at K = 1, 8, 16 and 64, forward over g and
// (directed) reversed over the transpose, on a directed and an undirected
// RMAT made strongly connected by a ring, for a deletion of every out-arc
// of the top-degree vertex and for a random deletion. On that graph SSR is
// one plateau, so its taint must flood the graph.
func TestTaintMatchesReference(t *testing.T) {
	const logN = 9
	const n = 1 << logN
	for _, directed := range []bool{true, false} {
		edges := gen.RMAT(gen.Config{LogN: logN, AvgDegree: 6, Directed: directed, Seed: 41})
		for v := 0; v < n; v++ {
			edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID((v + 1) % n), W: graph.Weight(1 + v%7)})
		}
		g := streamgraph.New(n, directed)
		snap, _ := g.InsertEdges(edges)
		pre := snap.Flatten()
		top := gen.TopDegreeVertices(n, edges, directed, 1)[0]
		var hub []graph.Edge
		adj, wgt := pre.OutSpan(top)
		for i, d := range adj {
			hub = append(hub, graph.Edge{Src: top, Dst: d, W: wgt[i]})
		}
		rng := rand.New(rand.NewSource(7))
		var random []graph.Edge
		for _, i := range rng.Perm(len(edges))[:60] {
			e := edges[i]
			if w, ok := snap.HasEdge(e.Src, e.Dst); ok {
				random = append(random, graph.Edge{Src: e.Src, Dst: e.Dst, W: w})
			}
		}
		posts := make([]engine.ArcView, 2)
		for i, del := range [][]graph.Edge{hub, random} {
			gd := streamgraph.New(n, directed)
			gd.InsertEdges(edges)
			next, _ := gd.DeleteEdges(del)
			posts[i] = next.Flatten()
		}
		for name, p := range props.Registry() {
			for _, k := range []int{1, 8, 16, 64} {
				m := New(p, pre, gen.TopDegreeVertices(n, edges, directed, k), directed)
				for i, del := range [][]graph.Edge{hub, random} {
					what := fmt.Sprintf("%s directed=%v K=%d deletion %d", name, directed, k, i)
					got := requireSameTaint(t, what+" forward", m, m.Forward, posts[i], del, !directed)
					if name == "SSR" && i == 0 {
						for slot := range k {
							if c := tainted(got, slot); c < n/2 {
								t.Fatalf("%s: slot %d tainted %d of %d vertices, want a flood", what, slot, c, n)
							}
						}
					}
					if directed {
						requireSameTaint(t, what+" reverse", m, m.Reverse, transposedOf(posts[i]), graph.ReversedArcs(del), false)
					}
				}
			}
		}
	}
}

// requireSameTaint fails unless taint and taintReference agree on st.
func requireSameTaint(t *testing.T, what string, m *Manager, st *engine.State, g engine.ArcView, del []graph.Edge, undirected bool) []uint64 {
	t.Helper()
	got := m.taint(st, g, del, undirected)
	want := m.taintReference(st, g, del, undirected)
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: taint nil=%v, reference nil=%v", what, got == nil, want == nil)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: vertex %d tainted in %#x, reference %#x", what, v, got[v], want[v])
		}
	}
	return got
}

// tainted counts the vertices tainted in slot k.
func tainted(taint []uint64, k int) (c int) {
	for _, mask := range taint {
		c += int(mask >> uint(k) & 1)
	}
	return c
}

// taintReference is the whole-mask taint worklist taint replaced, kept as
// its oracle: a vertex is pushed whenever it gains a bit, and each pop
// re-tests its whole mask on every out-arc.
func (m *Manager) taintReference(st *engine.State, g engine.ArcView, deleted []graph.Edge, undirected bool) []uint64 {
	p := m.Problem
	n := st.N
	K := st.K
	init := p.InitValue()
	taint := make([]uint64, n)
	var frontier []graph.VertexID

	seed := func(a, b graph.VertexID, w graph.Weight) {
		if int(a) >= n || int(b) >= n {
			return
		}
		var mask uint64
		for k := 0; k < K; k++ {
			va := st.Value(a, k)
			if va == init {
				continue
			}
			cand, ok := p.Relax(va, w)
			if ok && cand == st.Value(b, k) {
				mask |= 1 << uint(k)
			}
		}
		if mask != 0 && taint[b]|mask != taint[b] {
			taint[b] |= mask
			frontier = append(frontier, b)
		}
	}
	for _, e := range deleted {
		seed(e.Src, e.Dst, e.W)
		if undirected {
			seed(e.Dst, e.Src, e.W)
		}
	}
	if len(frontier) == 0 {
		return nil
	}

	// Propagate witnesses over the surviving arcs. Sequential worklist —
	// taint sets are usually tiny relative to the graph; the repair push
	// afterwards is the parallel part. A vertex re-enters the worklist
	// only when it gains new taint bits, so the loop terminates after at
	// most n*K bit additions.
	for len(frontier) > 0 {
		x := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		mask := taint[x]
		dsts, ws := g.OutSpan(x)
		for i, y := range dsts {
			var add uint64
			for mk := mask; mk != 0; mk &= mk - 1 {
				k := bits.TrailingZeros64(mk)
				vx := st.Value(x, k)
				if vx == init {
					continue
				}
				cand, ok := p.Relax(vx, ws[i])
				if ok && cand == st.Value(y, k) && taint[y]&(1<<uint(k)) == 0 {
					add |= 1 << uint(k)
				}
			}
			if add != 0 {
				taint[y] |= add
				frontier = append(frontier, y)
			}
		}
	}
	return taint
}
