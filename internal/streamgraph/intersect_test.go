package streamgraph

import (
	"testing"

	"tripoline/internal/gen"
	"tripoline/internal/graph"
)

func triangleGraph() *Graph {
	// 0-1-2 triangle plus pendant 3 on vertex 0.
	g := New(4, false)
	g.InsertEdges([]graph.Edge{
		{Src: 0, Dst: 1, W: 1}, {Src: 1, Dst: 2, W: 1}, {Src: 0, Dst: 2, W: 1},
		{Src: 0, Dst: 3, W: 1},
	})
	return g
}

func TestCommonNeighbors(t *testing.T) {
	s := triangleGraph().Acquire()
	got := s.CommonNeighbors(1, 2)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("common(1,2)=%v, want [0]", got)
	}
	if got := s.CommonNeighbors(2, 3); len(got) != 1 || got[0] != 0 {
		t.Fatalf("common(2,3)=%v, want [0]", got)
	}
	if got := s.CommonNeighbors(3, 3); len(got) != 1 || got[0] != 0 {
		t.Fatalf("common(3,3)=%v", got)
	}
}

func TestCommonNeighborsAgainstBrute(t *testing.T) {
	edges := gen.Uniform(60, 700, 4, 501)
	g := New(60, false)
	g.InsertEdges(edges)
	s := g.Acquire()
	for _, pair := range [][2]graph.VertexID{{1, 2}, {10, 40}, {59, 0}} {
		u, v := pair[0], pair[1]
		want := map[graph.VertexID]bool{}
		au, _ := s.Flatten().OutSpan(u)
		av, _ := s.Flatten().OutSpan(v)
		setU := map[graph.VertexID]bool{}
		for _, x := range au {
			setU[x] = true
		}
		for _, x := range av {
			if setU[x] {
				want[x] = true
			}
		}
		got := s.CommonNeighbors(u, v)
		if len(got) != len(want) {
			t.Fatalf("common(%d,%d) size %d, want %d", u, v, len(got), len(want))
		}
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Fatal("result not sorted ascending")
			}
		}
		for _, x := range got {
			if !want[x] {
				t.Fatalf("spurious common neighbor %d", x)
			}
		}
	}
}

func TestCountTrianglesAt(t *testing.T) {
	s := triangleGraph().Acquire()
	if got := s.CountTrianglesAt(0); got != 1 {
		t.Fatalf("triangles at 0 = %d, want 1", got)
	}
	if got := s.CountTrianglesAt(3); got != 0 {
		t.Fatalf("triangles at pendant = %d", got)
	}
}

func TestClusteringCoefficient(t *testing.T) {
	s := triangleGraph().Acquire()
	// Vertex 0 has 3 neighbors (1,2,3), 3 pairs, 1 triangle → 1/3.
	if got := s.ClusteringCoefficient(0); got < 0.33 || got > 0.34 {
		t.Fatalf("cc(0)=%v, want 1/3", got)
	}
	// Vertex 1 has neighbors {0,2} which are adjacent → 1.0.
	if got := s.ClusteringCoefficient(1); got != 1 {
		t.Fatalf("cc(1)=%v, want 1", got)
	}
	if got := s.ClusteringCoefficient(3); got != 0 {
		t.Fatalf("cc(pendant)=%v, want 0", got)
	}
}
