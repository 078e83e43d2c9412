package graph

import (
	"sort"
	"testing"
	"testing/quick"
)

func smallDirected() *CSR {
	// 0→1 (w2), 0→2 (w5), 1→2 (w1), 2→3 (w4), 3→0 (w1)
	return FromEdges(4, []Edge{
		{Src: 0, Dst: 1, W: 2}, {Src: 0, Dst: 2, W: 5}, {Src: 1, Dst: 2, W: 1}, {Src: 2, Dst: 3, W: 4}, {Src: 3, Dst: 0, W: 1},
	}, true)
}

func TestFromEdgesDirected(t *testing.T) {
	g := smallDirected()
	if g.N != 4 || g.NumEdges() != 5 {
		t.Fatalf("N=%d M=%d", g.N, g.NumEdges())
	}
	if g.Degree(0) != 2 || g.Degree(1) != 1 || g.Degree(3) != 1 {
		t.Fatal("degrees wrong")
	}
	adj, wgt := g.OutSpan(0)
	if len(adj) != 2 || adj[0] != 1 || adj[1] != 2 || wgt[0] != 2 || wgt[1] != 5 {
		t.Fatalf("neighbors of 0 = %v %v", adj, wgt)
	}
}

func TestFromEdgesUndirectedMirrors(t *testing.T) {
	g := FromEdges(3, []Edge{{Src: 0, Dst: 1, W: 7}, {Src: 1, Dst: 2, W: 3}}, false)
	if g.NumEdges() != 4 {
		t.Fatalf("M=%d, want 4 (mirrored)", g.NumEdges())
	}
	if g.Degree(1) != 2 {
		t.Fatalf("deg(1)=%d", g.Degree(1))
	}
	adj, wgt := g.OutSpan(2)
	if len(adj) != 1 || adj[0] != 1 || wgt[0] != 3 {
		t.Fatal("mirror arc missing")
	}
}

func TestFromEdgesDedupFirstWins(t *testing.T) {
	g := FromEdges(2, []Edge{{Src: 0, Dst: 1, W: 1}, {Src: 0, Dst: 1, W: 9}, {Src: 0, Dst: 1, W: 5}}, true)
	if g.NumEdges() != 1 {
		t.Fatalf("M=%d, want 1", g.NumEdges())
	}
	_, wgt := g.OutSpan(0)
	if wgt[0] != 1 {
		t.Fatalf("weight=%d, want first duplicate 1", wgt[0])
	}
}

func TestAdjacencySorted(t *testing.T) {
	g := FromEdges(5, []Edge{{Src: 0, Dst: 4, W: 1}, {Src: 0, Dst: 2, W: 1}, {Src: 0, Dst: 3, W: 1}, {Src: 0, Dst: 1, W: 1}}, true)
	adj, _ := g.OutSpan(0)
	for i := 1; i < len(adj); i++ {
		if adj[i-1] >= adj[i] {
			t.Fatalf("adjacency not sorted: %v", adj)
		}
	}
}

func TestTranspose(t *testing.T) {
	g := smallDirected()
	gt := g.Transpose()
	if gt.NumEdges() != g.NumEdges() {
		t.Fatal("transpose changed edge count")
	}
	// 0→1 in g must be 1→0 in gt with the same weight.
	adj, wgt := gt.OutSpan(1)
	if len(adj) != 1 || adj[0] != 0 || wgt[0] != 2 {
		t.Fatalf("transpose of 0→1 wrong: %v %v", adj, wgt)
	}
	// Double transpose is the identity on the arc set.
	gtt := gt.Transpose()
	for v := 0; v < g.N; v++ {
		a1, w1 := g.OutSpan(VertexID(v))
		a2, w2 := gtt.OutSpan(VertexID(v))
		if len(a1) != len(a2) {
			t.Fatalf("vertex %d degree differs after double transpose", v)
		}
		for i := range a1 {
			if a1[i] != a2[i] || w1[i] != w2[i] {
				t.Fatalf("vertex %d arc %d differs", v, i)
			}
		}
	}
}

func TestTransposeQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 32
		edges := make([]Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{
				Src: VertexID(raw[i] % n), Dst: VertexID(raw[i+1] % n), W: 1,
			})
		}
		g := FromEdges(n, edges, true)
		gt := g.Transpose()
		// every arc u→v in g appears as v→u in gt
		ok := true
		for v := 0; v < n && ok; v++ {
			adj, wgt := g.OutSpan(VertexID(v))
			for i, d := range adj {
				found := false
				adj2, wgt2 := gt.OutSpan(d)
				for j, d2 := range adj2 {
					if d2 == VertexID(v) && wgt2[j] == wgt[i] {
						found = true
					}
				}
				if !found {
					ok = false
				}
			}
		}
		return ok && g.NumEdges() == gt.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStatistics(t *testing.T) {
	g := smallDirected()
	s := g.Statistics("test")
	if s.N != 4 || s.M != 5 || s.MaxOutDegree != 2 {
		t.Fatalf("stats %+v", s)
	}
	if s.AvgOutDegree < 1.24 || s.AvgOutDegree > 1.26 {
		t.Fatalf("avg degree %v", s.AvgOutDegree)
	}
	if s.String() == "" {
		t.Fatal("empty string rendering")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := FromEdges(10, nil, true)
	if g.NumEdges() != 0 {
		t.Fatal("empty graph has edges")
	}
	for v := 0; v < 10; v++ {
		if g.Degree(VertexID(v)) != 0 {
			t.Fatal("phantom degree")
		}
	}
}

func TestSelfLoopKept(t *testing.T) {
	g := FromEdges(2, []Edge{{Src: 0, Dst: 0, W: 3}}, true)
	if g.NumEdges() != 1 {
		t.Fatal("self loop dropped")
	}
}

// TestReversedArcsQuick: the reversed list of a source-sorted arc list
// holds every arc once, reversed, sorted by source and then destination —
// over IDs wide enough that every byte pass of the radix sort runs.
func TestReversedArcsQuick(t *testing.T) {
	f := func(ids []uint32) bool {
		var arcs []Edge
		seen := make(map[[2]VertexID]bool)
		for i := 0; i+1 < len(ids); i += 2 {
			a := Edge{Src: ids[i] >> uint(i%24), Dst: ids[i+1] >> uint(i%24), W: Weight(i)}
			if !seen[[2]VertexID{a.Src, a.Dst}] {
				seen[[2]VertexID{a.Src, a.Dst}] = true
				arcs = append(arcs, a)
			}
		}
		sort.Slice(arcs, func(i, j int) bool { return arcs[i].Src < arcs[j].Src })
		rev := ReversedArcs(arcs)
		if len(rev) != len(arcs) {
			return false
		}
		for i, r := range rev {
			if !seen[[2]VertexID{r.Dst, r.Src}] {
				return false
			}
			if i > 0 && (rev[i-1].Src > r.Src || rev[i-1].Src == r.Src && rev[i-1].Dst >= r.Dst) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSortArcsQuick: SortArcs orders arcs exactly as a stable comparison
// sort by source, then destination — repeated pairs, told apart by weight,
// keep their order — over IDs wide enough that every digit's pass runs.
func TestSortArcsQuick(t *testing.T) {
	f := func(ids []uint32) bool {
		var arcs, again []Edge
		for i := 0; i+1 < len(ids); i += 2 {
			a := Edge{Src: ids[i] >> uint(i%24), Dst: ids[i+1] >> uint(i%24), W: Weight(i)}
			arcs = append(arcs, a)
			if i%3 == 0 { // the same pair again, later in the list
				again = append(again, Edge{Src: a.Src, Dst: a.Dst, W: Weight(i + 1)})
			}
		}
		arcs = append(arcs, again...)
		want := append([]Edge(nil), arcs...)
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].Src != want[j].Src {
				return want[i].Src < want[j].Src
			}
			return want[i].Dst < want[j].Dst
		})
		SortArcs(arcs)
		for i := range want {
			if arcs[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
