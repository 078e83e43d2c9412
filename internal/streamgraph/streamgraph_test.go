package streamgraph

import (
	"testing"
	"testing/quick"

	"tripoline/internal/gen"
	"tripoline/internal/graph"
)

func TestEmptyGraph(t *testing.T) {
	g := New(5, true)
	s := g.Acquire()
	if s.NumVertices() != 5 || s.NumEdges() != 0 || s.Version() != 0 {
		t.Fatalf("empty snapshot: n=%d m=%d v=%d", s.NumVertices(), s.NumEdges(), s.Version())
	}
}

func TestInsertDirected(t *testing.T) {
	g := New(4, true)
	snap, changed := g.InsertEdges([]graph.Edge{{Src: 0, Dst: 1, W: 2}, {Src: 2, Dst: 3, W: 5}})
	if snap.NumEdges() != 2 {
		t.Fatalf("m=%d", snap.NumEdges())
	}
	if len(changed) != 2 || changed[0] != 0 || changed[1] != 2 {
		t.Fatalf("changed=%v", changed)
	}
	if w, ok := snap.HasEdge(0, 1); !ok || w != 2 {
		t.Fatal("arc 0→1 missing")
	}
	if _, ok := snap.HasEdge(1, 0); ok {
		t.Fatal("directed graph mirrored an arc")
	}
}

func TestInsertUndirectedMirrors(t *testing.T) {
	g := New(3, false)
	snap, changed := g.InsertEdges([]graph.Edge{{Src: 0, Dst: 1, W: 7}})
	if snap.NumEdges() != 2 {
		t.Fatalf("m=%d, want mirrored 2", snap.NumEdges())
	}
	if len(changed) != 2 {
		t.Fatalf("changed=%v, want both endpoints", changed)
	}
	if w, ok := snap.HasEdge(1, 0); !ok || w != 7 {
		t.Fatal("mirror arc missing")
	}
}

func TestReinsertIsNoOp(t *testing.T) {
	g := New(2, true)
	g.InsertEdges([]graph.Edge{{Src: 0, Dst: 1, W: 3}})
	snap, changed := g.InsertEdges([]graph.Edge{{Src: 0, Dst: 1, W: 9}})
	if snap.NumEdges() != 1 {
		t.Fatalf("m=%d after re-insert", snap.NumEdges())
	}
	if w, _ := snap.HasEdge(0, 1); w != 3 {
		t.Fatalf("weight=%d, want original 3 (grow-only stream)", w)
	}
	if len(changed) != 0 {
		t.Fatalf("changed=%v, want none for a pure duplicate batch", changed)
	}
}

func TestBatchInternalDuplicateFirstWins(t *testing.T) {
	g := New(2, true)
	snap, _ := g.InsertEdges([]graph.Edge{{Src: 0, Dst: 1, W: 4}, {Src: 0, Dst: 1, W: 8}})
	if snap.NumEdges() != 1 {
		t.Fatalf("m=%d", snap.NumEdges())
	}
	if w, _ := snap.HasEdge(0, 1); w != 4 {
		t.Fatalf("weight=%d, want first 4", w)
	}
}

func TestSnapshotImmutability(t *testing.T) {
	g := New(3, true)
	s1, _ := g.InsertEdges([]graph.Edge{{Src: 0, Dst: 1, W: 1}})
	s2, _ := g.InsertEdges([]graph.Edge{{Src: 1, Dst: 2, W: 1}, {Src: 0, Dst: 2, W: 4}})
	if s1.NumEdges() != 1 {
		t.Fatalf("old snapshot edge count changed: %d", s1.NumEdges())
	}
	if _, ok := s1.HasEdge(0, 2); ok {
		t.Fatal("old snapshot sees new arc")
	}
	if s2.NumEdges() != 3 {
		t.Fatalf("new snapshot m=%d", s2.NumEdges())
	}
	if s1.Version() != 1 || s2.Version() != 2 {
		t.Fatalf("versions %d %d", s1.Version(), s2.Version())
	}
}

func TestVertexGrowth(t *testing.T) {
	g := New(2, true)
	snap, _ := g.InsertEdges([]graph.Edge{{Src: 0, Dst: 9, W: 1}})
	if snap.NumVertices() != 10 {
		t.Fatalf("n=%d, want grown to 10", snap.NumVertices())
	}
	if snap.Degree(9) != 0 || snap.Degree(0) != 1 {
		t.Fatal("degrees after growth wrong")
	}
}

func TestOutNeighborsSorted(t *testing.T) {
	g := New(5, true)
	g.InsertEdges([]graph.Edge{{Src: 0, Dst: 4, W: 1}, {Src: 0, Dst: 1, W: 2}, {Src: 0, Dst: 3, W: 3}})
	adj, wgt := g.Acquire().OutNeighbors(0)
	if len(adj) != 3 || adj[0] != 1 || adj[1] != 3 || adj[2] != 4 {
		t.Fatalf("adj=%v", adj)
	}
	if wgt[0] != 2 || wgt[1] != 3 || wgt[2] != 1 {
		t.Fatalf("wgt=%v", wgt)
	}
}

// TestMatchesCSR streams a random edge list and checks the final snapshot
// agrees with a CSR built directly from the same edges.
func TestMatchesCSR(t *testing.T) {
	for _, directed := range []bool{true, false} {
		edges := gen.Uniform(200, 3000, 16, 77)
		want := graph.FromEdges(200, edges, directed)

		g := New(200, directed)
		for i := 0; i < len(edges); i += 250 {
			end := min(i+250, len(edges))
			g.InsertEdges(edges[i:end])
		}
		snap := g.Acquire()
		// Both loaders apply the first-wins duplicate rule, so the arc
		// sets and weights must agree exactly.
		for v := 0; v < 200; v++ {
			wantAdj, wantW := want.OutSpan(graph.VertexID(v))
			gotAdj, gotW := snap.OutNeighbors(graph.VertexID(v))
			if len(wantAdj) != len(gotAdj) {
				t.Fatalf("directed=%v v=%d degree %d vs %d", directed, v, len(gotAdj), len(wantAdj))
			}
			for i := range wantAdj {
				if wantAdj[i] != gotAdj[i] || wantW[i] != gotW[i] {
					t.Fatalf("directed=%v v=%d arc %d differs", directed, v, i)
				}
			}
		}
		got := snap.CSR(directed)
		if got.NumEdges() != want.NumEdges() {
			t.Fatalf("CSR materialization edge count %d vs %d", got.NumEdges(), want.NumEdges())
		}
	}
}

func TestChangedSourcesQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 64
		g := New(n, true)
		batch := make([]graph.Edge, 0, len(raw)/2)
		srcs := map[graph.VertexID]bool{}
		for i := 0; i+1 < len(raw); i += 2 {
			s := graph.VertexID(raw[i] % n)
			d := graph.VertexID(raw[i+1] % n)
			if s == d {
				continue
			}
			batch = append(batch, graph.Edge{Src: s, Dst: d, W: 1})
			srcs[s] = true
		}
		_, changed := g.InsertEdges(batch)
		if len(changed) != len(srcs) {
			return false
		}
		for i := 1; i < len(changed); i++ {
			if changed[i-1] >= changed[i] {
				return false // must be sorted and distinct
			}
		}
		for _, s := range changed {
			if !srcs[s] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentReadersDuringWrites(t *testing.T) {
	g := New(100, false)
	edges := gen.Uniform(100, 2000, 8, 5)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < len(edges); i += 100 {
			g.InsertEdges(edges[i:min(i+100, len(edges))])
		}
	}()
	// Readers hammer snapshots while the writer streams.
	for i := 0; i < 200; i++ {
		s := g.Acquire()
		var count int64
		for v := 0; v < s.NumVertices(); v++ {
			s.ForEachOut(graph.VertexID(v), func(graph.VertexID, graph.Weight) { count++ })
		}
		if count != s.NumEdges() {
			t.Fatalf("snapshot internally inconsistent: iterated %d of %d arcs", count, s.NumEdges())
		}
	}
	<-done
}

// TestInsertedArcsRecordsWhatWasStored: the insertion record a version's
// mirror carries is exactly the arcs the batch stored — sorted by source
// and then destination, whatever order the batch offered them in, at the
// stored weight, mirrors included on an undirected graph, and
// without what first-wins insertion skipped (arcs present already or
// repeated within the batch). FlattenFrom returns the same mirror, with
// the same record; the initial snapshot's mirror and one published by a
// deletion carry none.
func TestInsertedArcsRecordsWhatWasStored(t *testing.T) {
	g := New(4, false)
	if _, ok := g.Acquire().Flatten().InsertedArcs(); ok {
		t.Fatal("the initial snapshot claims an insertion record")
	}
	parent, _ := g.InsertEdges([]graph.Edge{{Src: 2, Dst: 3, W: 5}})
	snap, changed := g.InsertEdges([]graph.Edge{
		{Src: 3, Dst: 2, W: 9}, // stored already (as the mirror of 2–3)
		{Src: 1, Dst: 3, W: 6}, // source 1 offers destination 3, then 0
		{Src: 1, Dst: 0, W: 7},
		{Src: 0, Dst: 1, W: 8}, // repeated within the batch: first wins
		{Src: 2, Dst: 0, W: 4},
	})
	want := []graph.Edge{
		{Src: 0, Dst: 1, W: 7}, {Src: 0, Dst: 2, W: 4},
		{Src: 1, Dst: 0, W: 7}, {Src: 1, Dst: 3, W: 6},
		{Src: 2, Dst: 0, W: 4},
		{Src: 3, Dst: 1, W: 6},
	}
	patched := snap.FlattenFrom(parent.Flatten(), changed)
	for _, view := range []*Flat{snap.Flatten(), patched} {
		got, ok := view.InsertedArcs()
		if !ok || len(got) != len(want) {
			t.Fatalf("recorded %v (ok=%v), want %v", got, ok, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("recorded %v, want %v", got, want)
			}
			if i > 0 && (got[i-1].Src > got[i].Src || got[i-1].Src == got[i].Src && got[i-1].Dst >= got[i].Dst) {
				t.Fatalf("record %v is not sorted by (source, destination)", got)
			}
		}
	}
	if int64(len(want)) != snap.NumEdges()-2 {
		t.Fatalf("record holds %d arcs, the snapshot gained %d", len(want), snap.NumEdges()-2)
	}

	dup, changed := g.InsertEdges([]graph.Edge{{Src: 0, Dst: 1, W: 1}})
	if arcs, ok := dup.Flatten().InsertedArcs(); !ok || len(arcs) != 0 || len(changed) != 0 {
		t.Fatalf("an all-duplicate batch recorded %v (ok=%v), changed %v", arcs, ok, changed)
	}
	del, _ := g.DeleteEdges([]graph.Edge{{Src: 0, Dst: 1}})
	if _, ok := del.Flatten().InsertedArcs(); ok {
		t.Fatal("a snapshot published by a deletion claims an insertion record")
	}
}
