package gen

import (
	"sort"
	"testing"

	"tripoline/internal/graph"
)

func TestRMATDeterminism(t *testing.T) {
	c := Config{Name: "t", LogN: 10, AvgDegree: 8, Directed: true, Seed: 5}
	a := RMAT(c)
	b := RMAT(c)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestRMATBounds(t *testing.T) {
	c := Config{Name: "t", LogN: 9, AvgDegree: 10, Seed: 3, MaxWeight: 16}
	edges := RMAT(c)
	n := graph.VertexID(c.N())
	if len(edges) != int(10*float64(c.N())) {
		t.Fatalf("edge count %d", len(edges))
	}
	for _, e := range edges {
		if e.Src >= n || e.Dst >= n {
			t.Fatalf("vertex out of range: %+v", e)
		}
		if e.W < 1 || e.W > 16 {
			t.Fatalf("weight out of range: %+v", e)
		}
		if e.Src == e.Dst {
			t.Fatalf("self loop survived: %+v", e)
		}
	}
}

func TestRMATIsSkewed(t *testing.T) {
	// The top 1% of vertices should own far more than 1% of the arcs —
	// the power-law property the evaluation depends on.
	c := Config{Name: "t", LogN: 12, AvgDegree: 16, Seed: 7}
	edges := RMAT(c)
	deg := make([]int, c.N())
	for _, e := range edges {
		deg[e.Src]++
	}
	sort.Sort(sort.Reverse(sort.IntSlice(deg)))
	top := 0
	cut := c.N() / 100
	for i := 0; i < cut; i++ {
		top += deg[i]
	}
	frac := float64(top) / float64(len(edges))
	if frac < 0.10 {
		t.Fatalf("top 1%% of vertices own only %.1f%% of arcs — not skewed", 100*frac)
	}
}

func TestUniform(t *testing.T) {
	edges := Uniform(100, 1000, 8, 1)
	if len(edges) != 1000 {
		t.Fatal("wrong count")
	}
	for _, e := range edges {
		if e.Src >= 100 || e.Dst >= 100 || e.Src == e.Dst || e.W < 1 || e.W > 8 {
			t.Fatalf("bad edge %+v", e)
		}
	}
}

func TestGridDistances(t *testing.T) {
	n, edges := Grid(3, 4, 2)
	if n != 12 {
		t.Fatalf("n=%d", n)
	}
	// 3x4 grid: horizontal 3*3=9, vertical 2*4=8 undirected edges, stored
	// as two arcs each.
	if len(edges) != 2*(9+8) {
		t.Fatalf("edges=%d", len(edges))
	}
}

func TestMakeStreamPartition(t *testing.T) {
	edges := Uniform(50, 777, 4, 9)
	s := MakeStream(50, edges, true, 0.6, 100, 42)
	total := len(s.Initial)
	for _, b := range s.Batches {
		if len(b) > 100 {
			t.Fatalf("batch size %d > 100", len(b))
		}
		total += len(b)
	}
	if total != len(edges) {
		t.Fatalf("stream lost edges: %d != %d", total, len(edges))
	}
	frac := 0.6
	if want := int(frac * 777); len(s.Initial) != want {
		t.Fatalf("initial %d, want %d", len(s.Initial), want)
	}
	// All but possibly the last batch are full.
	for i, b := range s.Batches[:len(s.Batches)-1] {
		if len(b) != 100 {
			t.Fatalf("batch %d not full: %d", i, len(b))
		}
	}
}

func TestMakeStreamDeterministic(t *testing.T) {
	edges := Uniform(50, 300, 4, 9)
	a := MakeStream(50, edges, true, 0.5, 64, 42)
	b := MakeStream(50, edges, true, 0.5, 64, 42)
	if len(a.Initial) != len(b.Initial) {
		t.Fatal("initial lengths differ")
	}
	for i := range a.Initial {
		if a.Initial[i] != b.Initial[i] {
			t.Fatal("shuffles differ")
		}
	}
}

func TestMakeStreamShuffles(t *testing.T) {
	edges := Uniform(50, 300, 4, 9)
	s := MakeStream(50, edges, true, 1.0, 64, 42)
	same := 0
	for i := range s.Initial {
		if s.Initial[i] == edges[i] {
			same++
		}
	}
	if same > len(edges)/4 {
		t.Fatalf("stream barely shuffled: %d/%d fixed points", same, len(edges))
	}
}

func TestStandardConfigs(t *testing.T) {
	cfgs := Standard(1)
	if len(cfgs) != 4 {
		t.Fatalf("got %d configs", len(cfgs))
	}
	names := map[string]bool{}
	for _, c := range cfgs {
		names[c.Name] = true
		if c.LogN < 10 || c.AvgDegree <= 0 {
			t.Fatalf("bad config %+v", c)
		}
	}
	for _, want := range []string{"OR-sim", "FR-sim", "LJ-sim", "TW-sim"} {
		if !names[want] {
			t.Fatalf("missing %s", want)
		}
	}
	// Directedness must match the real graphs of Table 2.
	or, _ := ByName("OR-sim", 1)
	lj, _ := ByName("LJ-sim", 1)
	if or.Directed || !lj.Directed {
		t.Fatal("directedness mismatch with Table 2")
	}
	// Scaling grows the graphs.
	big := Standard(2)
	if big[0].LogN != cfgs[0].LogN+1 {
		t.Fatal("scale did not grow LogN")
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, ok := ByName("nope", 1); ok {
		t.Fatal("found nonexistent config")
	}
}
