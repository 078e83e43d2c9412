package streamgraph_test

import (
	"testing"

	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/streamgraph"
)

func TestFlattenMatchesTree(t *testing.T) {
	cfg := gen.Config{Name: "flat", LogN: 10, AvgDegree: 8, Directed: true, Seed: 9}
	edges := gen.RMAT(cfg)
	g := streamgraph.FromEdges(cfg.N(), edges, true)
	want := graph.FromEdges(cfg.N(), edges, true) // same first-wins rule
	snap := g.Acquire()
	f := snap.Flatten()

	if f.NumVertices() != snap.NumVertices() {
		t.Fatalf("NumVertices = %d, want %d", f.NumVertices(), snap.NumVertices())
	}
	if f.NumEdges() != snap.NumEdges() {
		t.Fatalf("NumEdges = %d, want %d", f.NumEdges(), snap.NumEdges())
	}
	if f.Version() != snap.Version() {
		t.Fatalf("Version = %d, want %d", f.Version(), snap.Version())
	}
	for v := 0; v < snap.NumVertices(); v++ {
		id := graph.VertexID(v)
		if f.Degree(id) != snap.Degree(id) {
			t.Fatalf("v=%d: Degree = %d, want %d", v, f.Degree(id), snap.Degree(id))
		}
		wantAdj, wantWgt := want.OutSpan(id)
		adj, wgt := f.OutSpan(id)
		if len(adj) != len(wantAdj) {
			t.Fatalf("v=%d: OutSpan has %d edges, want %d", v, len(adj), len(wantAdj))
		}
		for i := range adj {
			if adj[i] != wantAdj[i] || wgt[i] != wantWgt[i] {
				t.Fatalf("v=%d edge %d: (%d,%d), want (%d,%d)",
					v, i, adj[i], wgt[i], wantAdj[i], wantWgt[i])
			}
		}
	}
}

func TestFlattenCachedPerVersion(t *testing.T) {
	g := streamgraph.New(8, true)
	g.InsertEdges([]graph.Edge{{Src: 0, Dst: 1, W: 1}, {Src: 1, Dst: 2, W: 2}})
	snap := g.Acquire()
	f1 := snap.Flatten()
	if f2 := snap.Flatten(); f2 != f1 {
		t.Fatal("Flatten rebuilt the mirror for the same snapshot")
	}

	// A new batch lands: the new snapshot gets its own mirror, and the
	// old snapshot's mirror is untouched (immutability across versions).
	g.InsertEdges([]graph.Edge{{Src: 2, Dst: 3, W: 3}})
	snap2 := g.Acquire()
	f3 := snap2.Flatten()
	if f3 == f1 {
		t.Fatal("new version shares the old mirror")
	}
	if f3.Version() != snap2.Version() || f1.Version() != snap.Version() {
		t.Fatal("mirror versions do not track snapshot versions")
	}
	if f1.NumEdges() != 2 || f3.NumEdges() != 3 {
		t.Fatalf("edge counts: old=%d new=%d, want 2 and 3", f1.NumEdges(), f3.NumEdges())
	}
	if d := f1.Degree(2); d != 0 {
		t.Fatalf("old mirror saw the new edge: Degree(2)=%d", d)
	}
}

func TestFlattenConcurrent(t *testing.T) {
	cfg := gen.Config{Name: "flat", LogN: 9, AvgDegree: 6, Directed: false, Seed: 4}
	g := streamgraph.FromEdges(cfg.N(), gen.RMAT(cfg), false)
	snap := g.Acquire()
	out := make(chan *streamgraph.Flat, 8)
	for i := 0; i < 8; i++ {
		go func() { out <- snap.Flatten() }()
	}
	first := <-out
	for i := 1; i < 8; i++ {
		if f := <-out; f != first {
			t.Fatal("concurrent Flatten produced distinct mirrors")
		}
	}
}
