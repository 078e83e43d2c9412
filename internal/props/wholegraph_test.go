package props_test

import (
	"math"
	"testing"

	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/oracle"
	"tripoline/internal/props"
	"tripoline/internal/streamgraph"
)

func TestConnectedComponentsMatchesUnionFind(t *testing.T) {
	for _, seed := range []uint64{1, 5, 9} {
		g := graph.FromEdges(200, gen.Uniform(200, 350, 4, seed), false)
		st, _ := props.ConnectedComponents(g)
		want := oracle.Components(g)
		for v := 0; v < g.N; v++ {
			if st.Values[v] != want[v] {
				t.Fatalf("seed %d: label[%d]=%d, want %d", seed, v, st.Values[v], want[v])
			}
		}
	}
}

func TestConnectedComponentsIsolatedVertices(t *testing.T) {
	g := graph.FromEdges(5, []graph.Edge{{Src: 0, Dst: 1, W: 1}, {Src: 1, Dst: 0, W: 1}}, true)
	st, _ := props.ConnectedComponents(g)
	want := []uint64{0, 0, 2, 3, 4}
	for v := range want {
		if st.Values[v] != want[v] {
			t.Fatalf("label[%d]=%d, want %d", v, st.Values[v], want[v])
		}
	}
}

func TestResumeConnectedComponents(t *testing.T) {
	edges := gen.Uniform(150, 280, 4, 3)
	sg := streamgraph.New(150, false)
	sg.InsertEdges(edges[:140])
	st, _ := props.ConnectedComponents(sg.Acquire().Flatten())

	snap2, changed := sg.InsertEdges(edges[140:])
	props.ResumeConnectedComponents(snap2.Flatten(), st, changed)

	want := oracle.Components(snap2.CSR(false))
	for v := 0; v < 150; v++ {
		if st.Values[v] != want[v] {
			t.Fatalf("incremental CC wrong at %d: %d vs %d", v, st.Values[v], want[v])
		}
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	g := graph.FromEdges(300, gen.Uniform(300, 2400, 4, 7), true)
	res := props.PageRank(g, nil, 0.85, 100, 1e-10)
	var sum float64
	for _, r := range res.Ranks {
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("ranks sum to %v", sum)
	}
	if res.Iterations < 2 {
		t.Fatalf("converged suspiciously fast: %d iterations", res.Iterations)
	}
}

func TestPageRankHighDegreeRanksHigher(t *testing.T) {
	// A star: everyone points at vertex 0; vertex 0 must dominate.
	edges := make([]graph.Edge, 0, 20)
	for v := graph.VertexID(1); v <= 20; v++ {
		edges = append(edges, graph.Edge{Src: v, Dst: 0, W: 1})
	}
	g := graph.FromEdges(21, edges, true)
	res := props.PageRank(g, nil, 0.85, 100, 1e-12)
	for v := 1; v <= 20; v++ {
		if res.Ranks[0] <= res.Ranks[v] {
			t.Fatalf("hub rank %v not above leaf rank %v", res.Ranks[0], res.Ranks[v])
		}
	}
}

func TestPageRankIncrementalConvergesFaster(t *testing.T) {
	edges := gen.Uniform(400, 4000, 4, 13)
	g1 := graph.FromEdges(400, edges[:3900], true)
	g2 := graph.FromEdges(400, edges, true)

	full := props.PageRank(g2, nil, 0.85, 200, 1e-10)
	warm := props.PageRank(g1, nil, 0.85, 200, 1e-10)
	inc := props.PageRank(g2, warm.Ranks, 0.85, 200, 1e-10)

	if inc.Iterations >= full.Iterations {
		t.Fatalf("incremental PageRank took %d iterations, full took %d",
			inc.Iterations, full.Iterations)
	}
	for v := 0; v < 400; v++ {
		if math.Abs(inc.Ranks[v]-full.Ranks[v]) > 1e-6 {
			t.Fatalf("incremental rank diverged at %d: %v vs %v", v, inc.Ranks[v], full.Ranks[v])
		}
	}
}

func TestPageRankDanglingMass(t *testing.T) {
	// 0→1, 1 has no out-edges (dangling); mass must not leak.
	g := graph.FromEdges(2, []graph.Edge{{Src: 0, Dst: 1, W: 1}}, true)
	res := props.PageRank(g, nil, 0.85, 200, 1e-12)
	sum := res.Ranks[0] + res.Ranks[1]
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("dangling graph ranks sum to %v", sum)
	}
	if res.Ranks[1] <= res.Ranks[0] {
		t.Fatal("sink should out-rank its feeder")
	}
}
