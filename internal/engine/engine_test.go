package engine_test

import (
	"strings"
	"testing"

	"tripoline/internal/engine"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/oracle"
	"tripoline/internal/props"
	"tripoline/internal/streamgraph"
)

// The two adjacency stores a kernel can evaluate over.
var _, _ engine.ArcView = (*streamgraph.Flat)(nil), (*graph.CSR)(nil)

func randomCSR(n, m int, directed bool, seed uint64) *graph.CSR {
	return graph.FromEdges(n, gen.Uniform(n, m, 16, seed), directed)
}

func TestRunSSSPMatchesOracle(t *testing.T) {
	for _, directed := range []bool{true, false} {
		g := randomCSR(300, 2500, directed, 11)
		for _, src := range []graph.VertexID{0, 7, 299} {
			st, stats := engine.Run(g, props.SSSP{}, []graph.VertexID{src})
			want := oracle.BestPath(g, props.SSSP{}, src)
			for v := range want {
				if st.Values[v] != want[v] {
					t.Fatalf("directed=%v src=%d: dist[%d]=%d, want %d",
						directed, src, v, st.Values[v], want[v])
				}
			}
			if stats.Activations == 0 {
				t.Fatal("no activations recorded")
			}
		}
	}
}

func TestRunAllProblemsMatchOracle(t *testing.T) {
	g := randomCSR(200, 1600, true, 23)
	for name, p := range props.Registry() {
		st, _ := engine.Run(g, p, []graph.VertexID{3})
		want := oracle.BestPath(g, p, 3)
		for v := range want {
			if st.Values[v] != want[v] {
				t.Fatalf("%s: value[%d]=%d, want %d", name, v, st.Values[v], want[v])
			}
		}
	}
}

func TestRunOnGrid(t *testing.T) {
	// A grid has known BFS levels: Manhattan distance from the corner.
	n, edges := gen.Grid(5, 7, 1)
	g := graph.FromEdges(n, edges, true)
	st, _ := engine.Run(g, props.BFS{}, []graph.VertexID{0})
	for r := 0; r < 5; r++ {
		for c := 0; c < 7; c++ {
			v := r*7 + c
			if st.Values[v] != uint64(r+c) {
				t.Fatalf("level(%d,%d)=%d, want %d", r, c, st.Values[v], r+c)
			}
		}
	}
}

func TestBatchEqualsSeparateRuns(t *testing.T) {
	g := randomCSR(250, 2000, true, 31)
	sources := []graph.VertexID{1, 2, 3, 10, 42, 100, 200, 249}
	st, _ := engine.Run(g, props.SSSP{}, sources)
	for k, src := range sources {
		single, _ := engine.Run(g, props.SSSP{}, []graph.VertexID{src})
		for v := 0; v < g.N; v++ {
			if st.Value(graph.VertexID(v), k) != single.Values[v] {
				t.Fatalf("batch slot %d vertex %d differs", k, v)
			}
		}
	}
}

func TestDuplicateSourcesInBatch(t *testing.T) {
	g := randomCSR(100, 600, true, 37)
	st, _ := engine.Run(g, props.BFS{}, []graph.VertexID{5, 5, 9})
	for v := 0; v < g.N; v++ {
		if st.Value(graph.VertexID(v), 0) != st.Value(graph.VertexID(v), 1) {
			t.Fatalf("duplicate source slots diverge at %d", v)
		}
	}
}

// TestRunReverseMatchesTransposeOracle: the reversed query q⁻¹(dst) —
// property(x, dst) for every x — is a push from dst over the transposed
// graph, held to the oracle's backward evaluation for every problem.
func TestRunReverseMatchesTransposeOracle(t *testing.T) {
	g := randomCSR(200, 1500, true, 41)
	gt := g.Transpose()
	for name, p := range props.Registry() {
		dst := graph.VertexID(17)
		st, _ := engine.Run(gt, p, []graph.VertexID{dst})
		want := oracle.BestPathTo(g, p, dst)
		for v := range want {
			if st.Values[v] != want[v] {
				t.Fatalf("%s reverse: value[%d]=%v, want %v", name, v, st.Values[v], want[v])
			}
		}
	}
}

// TestRunReverseUndirectedEqualsForward: on an undirected graph the
// transposed push is the forward query.
func TestRunReverseUndirectedEqualsForward(t *testing.T) {
	g := randomCSR(150, 1200, false, 43)
	src := graph.VertexID(9)
	fwd, _ := engine.Run(g, props.SSSP{}, []graph.VertexID{src})
	rev, _ := engine.Run(g.Transpose(), props.SSSP{}, []graph.VertexID{src})
	for v := 0; v < g.N; v++ {
		if fwd.Values[v] != rev.Values[v] {
			t.Fatalf("undirected forward/reverse differ at %d: %d vs %d",
				v, fwd.Values[v], rev.Values[v])
		}
	}
}

func TestIncrementalResumeEqualsFresh(t *testing.T) {
	// Stream edges in two halves; resuming from the first half's converged
	// state (activating the batch's sources) must equal a fresh run.
	edges := gen.Uniform(200, 2400, 16, 47)
	sg := streamgraph.New(200, true)
	sg.InsertEdges(edges[:1200])
	snap1 := sg.Acquire().Flatten()

	src := graph.VertexID(2)
	st, _ := engine.Run(snap1, props.SSSP{}, []graph.VertexID{src})

	next, changed := sg.InsertEdges(edges[1200:])
	snap2 := next.Flatten()
	masks := make([]uint64, len(changed))
	for i := range masks {
		masks[i] = 1
	}
	st.RunPush(snap2, changed, masks)

	fresh, _ := engine.Run(snap2, props.SSSP{}, []graph.VertexID{src})
	for v := 0; v < 200; v++ {
		if st.Values[v] != fresh.Values[v] {
			t.Fatalf("incremental resume diverged at %d: %d vs %d",
				v, st.Values[v], fresh.Values[v])
		}
	}
}

func TestRunOnMirrorMatchesCSR(t *testing.T) {
	edges := gen.Uniform(150, 1300, 8, 53)
	sg := streamgraph.FromEdges(150, edges, false)
	mirror := sg.Acquire().Flatten()
	csr := graph.FromEdges(150, edges, false)
	for _, p := range []engine.Problem{props.SSSP{}, props.SSWP{}} {
		a, _ := engine.Run(mirror, p, []graph.VertexID{4})
		b, _ := engine.Run(csr, p, []graph.VertexID{4})
		for v := 0; v < 150; v++ {
			if a.Values[v] != b.Values[v] {
				t.Fatalf("%s: mirror vs CSR differ at %d", p.Name(), v)
			}
		}
	}
}

func TestStateGrow(t *testing.T) {
	// Both storages: contiguous at K=1, slot-blocked above — one block
	// narrower than a line (2), one full line (8), two blocks (9).
	for _, k := range []int{1, 2, 8, 9} {
		st := engine.NewState(props.SSSP{}, 4, k)
		st.SetSource(1, 0)
		st.Grow(10)
		if st.N != 10 {
			t.Fatalf("K=%d grow: N=%d", k, st.N)
		}
		if st.Value(1, 0) != 0 {
			t.Fatalf("K=%d: grow lost source value", k)
		}
		if st.Value(9, k-1) != props.Unreached {
			t.Fatalf("K=%d: grown slots not at init value", k)
		}
	}
}

func TestStateColumnAndClone(t *testing.T) {
	for _, k := range []int{1, 2, 3, 8, 9} {
		st := engine.NewState(props.BFS{}, 3, k)
		for v := 0; v < 3; v++ {
			for j := 0; j < k; j++ {
				st.SetValue(graph.VertexID(v), j, uint64(k*v+j))
			}
		}
		last := k - 1
		col := st.Column(last)
		view, contiguous := st.ColumnView(last)
		if contiguous != (k == 1) {
			t.Fatalf("K=%d: ColumnView ok=%v", k, contiguous)
		}
		// StrideView must address every width: value(v,j) = arr[v*stride+off].
		arr, stride, off := st.StrideView(last)
		// A block is as wide as K up to a cache line, so a narrow state
		// strides its columns by K words, not by a padded line.
		if want := min(k, 8); stride != want {
			t.Fatalf("K=%d: stride %d, want %d", k, stride, want)
		}
		for v := 0; v < 3; v++ {
			want := uint64(k*v + last)
			if col[v] != want {
				t.Fatalf("K=%d: column = %v", k, col)
			}
			if contiguous && view[v] != want {
				t.Fatalf("K=%d: column view = %v", k, view)
			}
			if got := arr[v*stride+off]; got != want {
				t.Fatalf("K=%d: StrideView(%d)[%d] = %d", k, last, v, got)
			}
		}
		inter := st.Interleaved()
		for i := range inter {
			if inter[i] != uint64(i) {
				t.Fatalf("K=%d: interleaved = %v", k, inter)
			}
		}
		cl := st.Clone()
		cl.SetValue(0, 0, 99)
		if st.Value(0, 0) == 99 {
			t.Fatalf("K=%d: clone aliases original", k)
		}
	}
}

func TestNewStatePanicsOnBadK(t *testing.T) {
	for _, k := range []int{0, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("K=%d did not panic", k)
				}
			}()
			engine.NewState(props.SSSP{}, 1, k)
		}()
	}
}

// A K>1 State literal has no slot-blocked storage for the width-K
// kernels to index; both round-0 producers must say so by name rather
// than fault on a nil slice.
func TestRunPanicsOnLiteralWideState(t *testing.T) {
	g := randomCSR(4, 8, true, 5)
	for name, run := range map[string]func(*engine.State){
		"push":      func(st *engine.State) { st.RunPush(g, []graph.VertexID{0}, []uint64{1}) },
		"push-arcs": func(st *engine.State) { st.RunPushArcs(g, []graph.Edge{{Src: 0, Dst: 1, W: 1}}) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "must be allocated by NewState") {
					t.Fatalf("%s: recovered %q, want the NewState panic", name, msg)
				}
			}()
			run(&engine.State{P: props.SSSP{}, K: 2, N: 4, Values: make([]uint64, 8)})
		}()
	}
}

func TestStatsAccounting(t *testing.T) {
	// A path graph 0→1→2→3 from source 0: BFS activates each vertex once.
	g := graph.FromEdges(4, []graph.Edge{{Src: 0, Dst: 1, W: 1}, {Src: 1, Dst: 2, W: 1}, {Src: 2, Dst: 3, W: 1}}, true)
	_, stats := engine.Run(g, props.BFS{}, []graph.VertexID{0})
	if stats.Activations != 4 {
		t.Fatalf("activations=%d, want 4", stats.Activations)
	}
	if stats.Iterations != 4 {
		t.Fatalf("iterations=%d, want 4", stats.Iterations)
	}
	if stats.Relaxations != 3 || stats.Updates != 3 {
		t.Fatalf("relax=%d upd=%d, want 3/3", stats.Relaxations, stats.Updates)
	}
}

func TestStatsAdd(t *testing.T) {
	a := engine.Stats{Activations: 1, Relaxations: 2, Updates: 3, Iterations: 4}
	a.Add(engine.Stats{Activations: 10, Relaxations: 20, Updates: 30, Iterations: 40})
	if a.Activations != 11 || a.Relaxations != 22 || a.Updates != 33 || a.Iterations != 44 {
		t.Fatalf("Add wrong: %+v", a)
	}
}

func TestUnreachableStaysAtInit(t *testing.T) {
	// Two disconnected components; queries from one must not touch the other.
	g := graph.FromEdges(4, []graph.Edge{{Src: 0, Dst: 1, W: 1}, {Src: 2, Dst: 3, W: 1}}, true)
	st, _ := engine.Run(g, props.SSSP{}, []graph.VertexID{0})
	if st.Values[2] != props.Unreached || st.Values[3] != props.Unreached {
		t.Fatal("unreachable vertices got values")
	}
}
