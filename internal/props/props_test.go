package props_test

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"tripoline/internal/engine"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/oracle"
	"tripoline/internal/props"
	"tripoline/internal/triangle"
)

// diamond is a small weighted directed graph with two u→x routes of
// different character, exercising every problem's choice logic:
//
//	0 →(1) 1 →(1) 3
//	0 →(10) 2 →(10) 3
func diamond() *graph.CSR {
	return graph.FromEdges(4, []graph.Edge{
		{Src: 0, Dst: 1, W: 1}, {Src: 1, Dst: 3, W: 1}, {Src: 0, Dst: 2, W: 10}, {Src: 2, Dst: 3, W: 10},
	}, true)
}

func runOne(t *testing.T, p engine.Problem, g *graph.CSR, src graph.VertexID) []uint64 {
	t.Helper()
	st, _ := engine.Run(g, p, []graph.VertexID{src})
	return st.Values
}

func TestSSSPDiamond(t *testing.T) {
	vals := runOne(t, props.SSSP{}, diamond(), 0)
	want := []uint64{0, 1, 10, 2}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("dist[%d]=%d, want %d", i, vals[i], want[i])
		}
	}
}

func TestBFSDiamond(t *testing.T) {
	vals := runOne(t, props.BFS{}, diamond(), 0)
	want := []uint64{0, 1, 1, 2}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("level[%d]=%d, want %d", i, vals[i], want[i])
		}
	}
}

func TestSSWPDiamond(t *testing.T) {
	vals := runOne(t, props.SSWP{}, diamond(), 0)
	// Widest path 0→3: via 2 with width min(10,10)=10.
	if vals[3] != 10 {
		t.Fatalf("wide[3]=%d, want 10", vals[3])
	}
	if vals[0] != math.MaxUint64 {
		t.Fatal("source width must be infinite")
	}
	if vals[1] != 1 || vals[2] != 10 {
		t.Fatalf("wide=%v", vals[:3])
	}
}

func TestSSNPDiamond(t *testing.T) {
	vals := runOne(t, props.SSNP{}, diamond(), 0)
	// Narrowest path 0→3: via 1 with max weight 1.
	if vals[3] != 1 {
		t.Fatalf("naro[3]=%d, want 1", vals[3])
	}
	if vals[0] != 0 {
		t.Fatal("source narrowness must be 0")
	}
}

func TestViterbiDiamond(t *testing.T) {
	vals := runOne(t, props.Viterbi{}, diamond(), 0)
	// Best probability 0→3: via 1 with 1/1 * 1/1 = 1.
	if got := props.ViterbiProb(vals[3]); got != 1.0 {
		t.Fatalf("vite[3]=%v, want 1.0", got)
	}
	if got := props.ViterbiProb(vals[2]); got != 0.1 {
		t.Fatalf("vite[2]=%v, want 0.1", got)
	}
	if props.ViterbiProb(vals[0]) != 1.0 {
		t.Fatal("source probability must be 1")
	}
}

func TestSSRDisconnected(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{Src: 0, Dst: 1, W: 1}, {Src: 2, Dst: 3, W: 1}}, true)
	vals := runOne(t, props.SSR{}, g, 0)
	want := []uint64{1, 1, 0, 0}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("rech[%d]=%d, want %d", i, vals[i], want[i])
		}
	}
}

// TestMonotonicityContract verifies that Relax never produces a value
// better than its input chain start, for random inputs — the monotonicity
// requirement of Definition 4.1.
func TestMonotonicityContract(t *testing.T) {
	for name, p := range props.Registry() {
		f := func(val uint64, w uint16) bool {
			weight := graph.Weight(w%64 + 1)
			cand, ok := p.Relax(val, weight)
			if !ok {
				return true
			}
			// The candidate must never be strictly better than the source
			// value it derived from (paths only get worse as they extend).
			return !p.Better(cand, val)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Fatalf("%s violates monotonicity: %v", name, err)
		}
	}
}

// TestTriangleInequalityOnRandomGraphs is the central property test: for
// every problem and random triples (u, r, x), the graph triangle
// inequality of Definition 3.1 must hold on true converged properties.
func TestTriangleInequalityOnRandomGraphs(t *testing.T) {
	for _, directed := range []bool{true, false} {
		g := graph.FromEdges(60, gen.Uniform(60, 400, 16, 3), directed)
		for name, p := range props.Registry() {
			// property(v, *) for a handful of v.
			from := map[graph.VertexID][]uint64{}
			for v := graph.VertexID(0); v < 12; v++ {
				from[v] = oracle.BestPath(g, p, v)
			}
			for u := graph.VertexID(0); u < 12; u++ {
				for r := graph.VertexID(0); r < 12; r++ {
					for x := 0; x < 60; x++ {
						if !triangle.Holds(p, from[u][r], from[r][x], from[u][x]) {
							t.Fatalf("%s (directed=%v): triangle violated for u=%d r=%d x=%d: "+
								"prop(u,r)=%d prop(r,x)=%d prop(u,x)=%d",
								name, directed, u, r, x, from[u][r], from[r][x], from[u][x])
						}
					}
				}
			}
		}
	}
}

// TestCombineWithInitIsNeverBetter: Δ values built from an unreachable
// standing root must degenerate to init (never a spuriously good value).
func TestCombineWithInitIsNeverBetter(t *testing.T) {
	for name, p := range props.Registry() {
		f := func(v uint64) bool {
			a := p.Combine(p.InitValue(), v)
			b := p.Combine(v, p.InitValue())
			return !p.Better(a, p.InitValue()) && !p.Better(b, p.InitValue())
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("%s: Combine with init produced a better-than-init value: %v", name, err)
		}
	}
}

// TestBetterIsStrictOrder checks irreflexivity and asymmetry of Better.
func TestBetterIsStrictOrder(t *testing.T) {
	for name, p := range props.Registry() {
		f := func(a, b uint64) bool {
			if p.Better(a, a) {
				return false
			}
			if p.Better(a, b) && p.Better(b, a) {
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Fatalf("%s: Better is not a strict order: %v", name, err)
		}
	}
}

// runSSNSP is SSNSP's two rounds: BFS levels, then the exact count.
func runSSNSP(t *testing.T, g *graph.CSR, src graph.VertexID) (levels, counts []uint64) {
	t.Helper()
	levels = runOne(t, props.BFS{}, g, src)
	counts, _, err := props.CountShortestPaths(context.Background(), g, src, levels)
	if err != nil {
		t.Fatal(err)
	}
	return levels, counts
}

func TestSSNSPMatchesOracle(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		g := graph.FromEdges(120, gen.Uniform(120, 700, 4, seed), true)
		levels, counts := runSSNSP(t, g, 5)
		wantLevels, wantCounts := oracle.CountShortestPaths(g, 5)
		for v := 0; v < g.N; v++ {
			if levels[v] != wantLevels[v] {
				t.Fatalf("seed %d: level[%d]=%d, want %d", seed, v, levels[v], wantLevels[v])
			}
			if counts[v] != wantCounts[v] {
				t.Fatalf("seed %d: count[%d]=%d, want %d", seed, v, counts[v], wantCounts[v])
			}
		}
	}
}

func TestSSNSPDiamondCounts(t *testing.T) {
	// Unweighted diamond: 0→{1,2}→3 gives two shortest paths to 3.
	g := graph.FromEdges(4, []graph.Edge{
		{Src: 0, Dst: 1, W: 1}, {Src: 0, Dst: 2, W: 1}, {Src: 1, Dst: 3, W: 1}, {Src: 2, Dst: 3, W: 1},
	}, true)
	_, counts := runSSNSP(t, g, 0)
	if counts[3] != 2 {
		t.Fatalf("count[3]=%d, want 2", counts[3])
	}
	if counts[0] != 1 {
		t.Fatalf("count[0]=%d, want 1", counts[0])
	}
}

// TestSSNSPCountsWrap holds the count round to the oracle where counts
// wrap to 0 mod 2^64 mid-DAG: 64 diamonds in a chain double the count 64
// times, so their last bottom z counts 0, and x has two parents a level
// below, z (ahead of y in vertex order) and y (counting 2^63). A round
// that took a zero count for "not yet visited" would visit x twice and
// count x's child w twice (2^64 = 0 instead of 2^63).
func TestSSNSPCountsWrap(t *testing.T) {
	var edges []graph.Edge
	arc := func(u, v graph.VertexID) { edges = append(edges, graph.Edge{Src: u, Dst: v, W: 1}) }
	const diamonds = 64
	for i := graph.VertexID(0); i < diamonds; i++ {
		top, bottom := 3*i, 3*i+3
		arc(top, top+1)
		arc(top, top+2)
		arc(top+1, bottom)
		arc(top+2, bottom)
	}
	z := graph.VertexID(3 * diamonds)
	y, x, w := z+1, z+2, z+3
	arc(z-2, y) // y sits on z's level, a child of one of its middles
	arc(z, x)
	arc(y, x)
	arc(x, w)
	g := graph.FromEdges(int(w)+1, edges, true)
	_, counts := runSSNSP(t, g, 0)
	_, want := oracle.CountShortestPaths(g, 0)
	for v := range want {
		if counts[v] != want[v] {
			t.Fatalf("count[%d]=%d, want %d", v, counts[v], want[v])
		}
	}
	if counts[z] != 0 || counts[y] != 1<<63 || counts[w] != 1<<63 {
		t.Fatalf("counts z=%d y=%d w=%d, want 0, 2^63, 2^63", counts[z], counts[y], counts[w])
	}
}

func TestRadiiEstimate(t *testing.T) {
	vals := []uint64{
		0, 5,
		3, props.Unreached,
		7, 2,
	}
	if got := props.RadiiEstimate(vals, 3, 2); got != 7 {
		t.Fatalf("radius=%d, want 7", got)
	}
}

func TestRegistryAndNames(t *testing.T) {
	reg := props.Registry()
	for _, name := range []string{"BFS", "SSSP", "SSWP", "SSNP", "Viterbi", "SSR"} {
		p, ok := reg[name]
		if !ok {
			t.Fatalf("registry missing %s", name)
		}
		if p.Name() != name {
			t.Fatalf("problem %s reports name %s", name, p.Name())
		}
	}
	if len(props.Names()) != 8 {
		t.Fatalf("Names() = %v, want the 8 Table 1 benchmarks", props.Names())
	}
}
