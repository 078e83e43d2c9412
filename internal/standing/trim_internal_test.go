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
	"tripoline/internal/triangle"
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
		edges := ringRMAT(logN, directed)
		g := streamgraph.New(n, directed)
		snap, _ := g.InsertEdges(edges)
		pre := snap.Flatten()
		hub := hubArcs(pre, TopDegreeRoots(pre, 1)[0])
		random := randomArcs(snap, edges, rand.New(rand.NewSource(7)), 60)
		posts := make([]engine.ArcView, 2)
		for i, del := range [][]graph.Edge{hub, random} {
			gd := streamgraph.New(n, directed)
			gd.InsertEdges(edges)
			next, _ := gd.DeleteEdges(del)
			posts[i] = next.Flatten()
		}
		for name, p := range props.Registry() {
			for _, k := range []int{1, 8, 16, 64} {
				m := New(p, pre, TopDegreeRoots(pre, k), directed)
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
	got := m.taint(st, g, del, undirected, nil)
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

// ringRMAT is a 2^logN-vertex RMAT graph of degree 6 made strongly
// connected by a ring.
func ringRMAT(logN int, directed bool) []graph.Edge {
	n := 1 << logN
	edges := gen.RMAT(gen.Config{LogN: logN, AvgDegree: 6, Directed: directed, Seed: 41})
	for v := 0; v < n; v++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID((v + 1) % n), W: graph.Weight(1 + v%7)})
	}
	return edges
}

// hubArcs lists every out-arc of hub in g, at its stored weight.
func hubArcs(g engine.ArcView, hub graph.VertexID) []graph.Edge {
	var arcs []graph.Edge
	dsts, ws := g.OutSpan(hub)
	for i, d := range dsts {
		arcs = append(arcs, graph.Edge{Src: hub, Dst: d, W: ws[i]})
	}
	return arcs
}

// randomArcs draws tries edges of edges and keeps those snap stores, at
// their stored weights.
func randomArcs(snap *streamgraph.Snapshot, edges []graph.Edge, rng *rand.Rand, tries int) []graph.Edge {
	var arcs []graph.Edge
	for _, i := range rng.Perm(len(edges))[:tries] {
		e := edges[i]
		if w, ok := snap.HasEdge(e.Src, e.Dst); ok {
			arcs = append(arcs, graph.Edge{Src: e.Src, Dst: e.Dst, W: w})
		}
	}
	return arcs
}

// TestTrimMatchesReference holds UpdateDeletions — the roots' trim forward
// and reversed, with support, and every lane page's, with settle and
// support — to trimReference, which resets every tainted value, bit for
// bit: root values, lane values and the lanes' Changed record, which is
// never drained in between. Every registered problem runs at K = 1, 8 and
// 16, with eight lanes (the hub, a root and six others), on a directed
// and an undirected ring-closed RMAT, over four deletion batches in turn:
// every out-arc of the top-degree vertex (on SSR a flood of the whole
// graph), then three random ones. The roots are also held to the oracle.
func TestTrimMatchesReference(t *testing.T) {
	const logN = 9
	const n = 1 << logN
	for _, directed := range []bool{true, false} {
		edges := ringRMAT(logN, directed)
		g := streamgraph.New(n, directed)
		snap, _ := g.InsertEdges(edges)
		pre := snap.Flatten()
		top := TopDegreeRoots(pre, 1)[0]
		rng := rand.New(rand.NewSource(11))
		var dels [][]graph.Edge
		var posts []*streamgraph.Snapshot
		for i := range 4 {
			del := hubArcs(snap.Flatten(), top)
			if i > 0 {
				del = randomArcs(snap, edges, rng, 40)
			}
			snap, _ = g.DeleteEdges(del)
			dels, posts = append(dels, del), append(posts, snap)
		}
		sources := []graph.VertexID{top}
		for _, v := range rng.Perm(n)[:7] {
			sources = append(sources, graph.VertexID(v))
		}
		for name, p := range props.Registry() {
			for _, k := range []int{1, 8, 16} {
				roots := TopDegreeRoots(pre, k)
				sources[1] = roots[len(roots)-1]
				got := New(p, pre, roots, directed)
				want := New(p, pre, roots, directed)
				for _, s := range sources {
					col, _ := engine.Run(pre, p, []graph.VertexID{s})
					got.Install(s, col)
					want.Install(s, col)
				}
				for i, del := range dels {
					what := fmt.Sprintf("%s directed=%v K=%d batch %d", name, directed, k, i)
					post := posts[i].Flatten()
					got.UpdateDeletions(post, del, !directed)
					want.updateDeletionsReference(post, del, !directed)
					requireSameState(t, what+" forward", got.Forward, want.Forward)
					if directed {
						requireSameState(t, what+" reverse", got.Reverse, want.Reverse)
					}
					requireSameState(t, what+" lanes", got.pages[0].st, want.pages[0].st)
					csr := posts[i].CSR(directed)
					for slot, r := range roots {
						requireColumn(t, fmt.Sprintf("%s forward root %d", what, r), got.Forward, slot, oracle.BestPath(csr, p, r))
						if directed {
							requireColumn(t, fmt.Sprintf("%s reverse root %d", what, r), got.Reverse, slot, oracle.BestPathTo(csr, p, r))
						}
					}
				}
			}
		}
	}
}

// requireSameState fails unless got and want hold the same values and the
// same Changed record.
func requireSameState(t *testing.T, what string, got, want *engine.State) {
	t.Helper()
	for v := range want.N {
		for k := range want.K {
			if g, w := got.Value(graph.VertexID(v), k), want.Value(graph.VertexID(v), k); g != w {
				t.Fatalf("%s: value(%d, %d) = %#x, reference %#x", what, v, k, g, w)
			}
		}
	}
	for v := range want.Changed {
		if got.Changed[v] != want.Changed[v] {
			t.Fatalf("%s: vertex %d recorded moved in %#x, reference %#x", what, v, got.Changed[v], want.Changed[v])
		}
	}
}

// requireColumn fails unless slot k of st equals want.
func requireColumn(t *testing.T, what string, st *engine.State, k int, want []uint64) {
	t.Helper()
	for v, w := range want {
		if g := st.Value(graph.VertexID(v), k); g != w {
			t.Fatalf("%s: value(%d) = %#x, oracle %#x", what, v, g, w)
		}
	}
}

// updateDeletionsReference is UpdateDeletions before the settle and support
// steps, kept as their oracle: every tainted value resets.
func (m *Manager) updateDeletionsReference(g engine.ArcView, deleted []graph.Edge, undirected bool) {
	in := g
	if m.directed {
		in = transposedOf(g)
	}
	m.trimReference(m.Forward, m.Roots, g, in, deleted, undirected)
	if m.Reverse != nil {
		m.trimReference(m.Reverse, m.Roots, transposedOf(g), g, graph.ReversedArcs(deleted), undirected)
	}
	for _, pg := range m.pages {
		pg.st.Grow(g.NumVertices())
		if taint := m.taint(pg.st, g, deleted, undirected, nil); taint != nil {
			m.repairLanesReference(pg, g, in, taint)
		}
	}
}

// trimReference is trim resetting every tainted value to init.
func (m *Manager) trimReference(st *engine.State, sources []graph.VertexID, g, in engine.ArcView, deleted []graph.Edge, undirected bool) {
	st.Grow(g.NumVertices())
	taint := m.taint(st, g, deleted, undirected, nil)
	if taint == nil {
		return
	}
	for v, mask := range taint {
		for ; mask != 0; mask &= mask - 1 {
			st.SetValue(graph.VertexID(v), bits.TrailingZeros64(mask), m.Problem.InitValue())
		}
	}
	repairReference(st, sources, g, in, taint)
}

// repairLanesReference resets every tainted lane value to the meet and
// records, beside what an undrained pass recorded, the tainted values
// that came back different.
func (m *Manager) repairLanesReference(pg *page, g, in engine.ArcView, taint []uint64) {
	st := pg.st
	meet := triangle.MeetOf(m.Problem)
	cols, cstride, _ := m.Forward.StrideView(0)
	arr, stride, offs := st.StrideViews()
	old := make(map[[2]int]uint64)
	prior := make([]uint64, len(taint))
	for x, mask := range taint {
		prior[x] = st.Changed[x] & mask
		for mk := mask; mk != 0; mk &= mk - 1 {
			k := bits.TrailingZeros64(mk)
			d := x*stride + offs[k]
			old[[2]int{x, k}] = arr[d]
			if lanes, _, _ := m.Meet(nil, pg.sources[k]); len(lanes) == 0 {
				arr[d] = m.Problem.InitValue()
			} else {
				meet(arr, d, 0, cols, x*cstride, 0, lanes, 1)
			}
		}
	}
	repairReference(st, pg.sources[:st.K], g, in, taint)
	for x, mask := range taint {
		st.Changed[x] = st.Changed[x]&^mask | prior[x]
	}
	for xk, was := range old {
		if arr[xk[0]*stride+offs[xk[1]]] != was {
			st.Changed[xk[0]] |= 1 << uint(xk[1])
		}
	}
}

// repairReference pushes from the boundary of the whole taint, a tainted
// source set to the source value and seeded.
func repairReference(st *engine.State, sources []graph.VertexID, g, in engine.ArcView, taint []uint64) {
	boundary := make([]uint64, st.N)
	for y, mask := range taint {
		tails, _ := in.OutSpan(graph.VertexID(y))
		for _, x := range tails {
			boundary[x] |= mask &^ taint[x]
		}
	}
	for k, r := range sources {
		if taint[r]&(1<<uint(k)) != 0 {
			st.SetSource(r, k)
			boundary[r] |= 1 << uint(k)
		}
	}
	var seeds []graph.VertexID
	var masks []uint64
	for v, mask := range boundary {
		if mask != 0 {
			seeds = append(seeds, graph.VertexID(v))
			masks = append(masks, mask)
		}
	}
	st.RunPush(g, seeds, masks)
}
