package streamgraph

import (
	"testing"

	"tripoline/internal/gen"
	"tripoline/internal/graph"
)

func TestDeleteDirected(t *testing.T) {
	g := New(3, true)
	g.InsertEdges([]graph.Edge{{Src: 0, Dst: 1, W: 2}, {Src: 1, Dst: 2, W: 3}})
	snap, changed := g.DeleteEdges([]graph.Edge{{Src: 0, Dst: 1, W: 0}})
	if snap.NumEdges() != 1 {
		t.Fatalf("m=%d", snap.NumEdges())
	}
	if _, ok := snap.HasEdge(0, 1); ok {
		t.Fatal("arc survived deletion")
	}
	if w, ok := snap.HasEdge(1, 2); !ok || w != 3 {
		t.Fatal("unrelated arc lost")
	}
	if len(changed) != 1 || changed[0] != 0 {
		t.Fatalf("changed=%v", changed)
	}
}

func TestDeleteUndirectedMirrors(t *testing.T) {
	g := New(3, false)
	g.InsertEdges([]graph.Edge{{Src: 0, Dst: 1, W: 2}})
	snap, changed := g.DeleteEdges([]graph.Edge{{Src: 1, Dst: 0, W: 0}})
	if snap.NumEdges() != 0 {
		t.Fatalf("m=%d, want both directions gone", snap.NumEdges())
	}
	if len(changed) != 2 {
		t.Fatalf("changed=%v", changed)
	}
}

func TestDeleteAbsentIsNoOp(t *testing.T) {
	g := New(3, true)
	g.InsertEdges([]graph.Edge{{Src: 0, Dst: 1, W: 2}})
	snap, changed := g.DeleteEdges([]graph.Edge{{Src: 2, Dst: 0, W: 0}, {Src: 0, Dst: 2, W: 0}})
	if snap.NumEdges() != 1 || len(changed) != 0 {
		t.Fatalf("m=%d changed=%v", snap.NumEdges(), changed)
	}
}

func TestDeletePreservesOldSnapshots(t *testing.T) {
	g := New(3, true)
	before, _ := g.InsertEdges([]graph.Edge{{Src: 0, Dst: 1, W: 2}})
	after, _ := g.DeleteEdges([]graph.Edge{{Src: 0, Dst: 1, W: 0}})
	if _, ok := before.HasEdge(0, 1); !ok {
		t.Fatal("old snapshot lost its arc")
	}
	if _, ok := after.HasEdge(0, 1); ok {
		t.Fatal("new snapshot kept the arc")
	}
	if after.Version() != before.Version()+1 {
		t.Fatal("version not bumped")
	}
}

func TestInsertDeleteRoundTrip(t *testing.T) {
	edges := gen.Uniform(100, 1000, 8, 3)
	g := New(100, false)
	g.InsertEdges(edges)
	full := g.Acquire()
	g.DeleteEdges(edges[:500])
	g.InsertEdges(edges[:500])
	back := g.Acquire()
	if back.NumEdges() != full.NumEdges() {
		t.Fatalf("m=%d, want %d after reinserting", back.NumEdges(), full.NumEdges())
	}
	for v := 0; v < 100; v++ {
		a1, w1 := full.Flatten().OutSpan(graph.VertexID(v))
		a2, w2 := back.Flatten().OutSpan(graph.VertexID(v))
		if len(a1) != len(a2) {
			t.Fatalf("vertex %d degree differs", v)
		}
		for i := range a1 {
			if a1[i] != a2[i] || w1[i] != w2[i] {
				t.Fatalf("vertex %d arc %d differs", v, i)
			}
		}
	}
}
