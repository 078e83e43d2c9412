package core_test

import (
	"context"
	"testing"

	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/oracle"
	"tripoline/internal/props"
	"tripoline/internal/streamgraph"
)

// TestRadiiQueryDeterminism: the helper sources derived from u must be
// stable across calls and across Δ/full, so radius estimates compare
// like for like.
func TestRadiiQueryDeterminism(t *testing.T) {
	edges := gen.Uniform(120, 1100, 8, 71)
	g := streamgraph.New(120, false)
	g.InsertEdges(edges)
	sys := newSystem(t, g, "Radii")
	a, err := sys.Query("Radii", 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Query("Radii", 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Radius != b.Radius {
		t.Fatalf("radius changed between identical queries: %d vs %d", a.Radius, b.Radius)
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatalf("radii values differ at %d", i)
		}
	}
	// Distinct sources yield (almost surely) distinct helper sets.
	c, err := sys.Query("Radii", 6)
	if err != nil {
		t.Fatal(err)
	}
	if c.Width != a.Width {
		t.Fatal("widths differ")
	}
}

// TestRadiiSlotsMatchSSSPOracle: every slot of the Radii result is a
// correct SSSP evaluation of its source.
func TestRadiiSlotsMatchSSSPOracle(t *testing.T) {
	edges := gen.Uniform(100, 900, 8, 73)
	g := streamgraph.New(100, true)
	g.InsertEdges(edges)
	sys := newSystem(t, g, "Radii")
	res, err := sys.Query("Radii", 9)
	if err != nil {
		t.Fatal(err)
	}
	csr := g.Acquire().CSR(true)
	// Slot 0 is the query source itself.
	want := oracle.BestPath(csr, props.SSSP{}, 9)
	for v := 0; v < 100; v++ {
		if res.Values[v*res.Width] != want[v] {
			t.Fatalf("slot 0 vertex %d: %d want %d", v, res.Values[v*res.Width], want[v])
		}
	}
	// The radius estimate is the max finite distance over all slots.
	if got := props.RadiiEstimate(res.Values, 100, res.Width); got != res.Radius {
		t.Fatalf("radius %d, recompute %d", res.Radius, got)
	}
}

// TestSSNSPQueryMatchesOracleAfterBatch: an SSNSP query's levels and
// counts reflect the post-batch graph — the levels Δ-initialized from the
// maintained BFS set, the counts recounted exactly per query.
func TestSSNSPQueryMatchesOracleAfterBatch(t *testing.T) {
	edges := gen.Uniform(100, 800, 4, 79)
	g := streamgraph.New(100, true)
	g.InsertEdges(edges[:600])
	sys := newSystem(t, g, "SSNSP")
	sys.ApplyBatch(edges[600:])

	// Query from an arbitrary source and cross-check with the oracle on
	// the final graph — exercised through the Δ path that reuses the
	// standing levels.
	csr := g.Acquire().CSR(true)
	for _, u := range []graph.VertexID{2, 50} {
		res, err := sys.Query("SSNSP", u)
		if err != nil {
			t.Fatal(err)
		}
		wantLevels, wantCounts := oracle.CountShortestPaths(csr, u)
		for v := range wantLevels {
			if res.Values[v] != wantLevels[v] {
				t.Fatalf("u=%d level[%d]=%d want %d", u, v, res.Values[v], wantLevels[v])
			}
			if res.Counts[v] != wantCounts[v] {
				t.Fatalf("u=%d count[%d]=%d want %d", u, v, res.Counts[v], wantCounts[v])
			}
		}
	}
}

// TestQuerySourceOutOfRange: sources beyond the graph are rejected with
// an error on every query path (never a panic).
func TestQuerySourceOutOfRange(t *testing.T) {
	g := streamgraph.New(4, true)
	g.InsertEdges([]graph.Edge{{Src: 0, Dst: 1, W: 1}})
	sys := newSystem(t, g, "SSSP")
	if _, err := sys.Query("SSSP", 99); err == nil {
		t.Fatal("out-of-range Query accepted")
	}
	if _, err := sys.QueryFull("SSSP", 99); err == nil {
		t.Fatal("out-of-range QueryFull accepted")
	}
	if _, err := sys.QueryManyCtx(context.Background(), "SSSP", []graph.VertexID{0, 99}); err == nil {
		t.Fatal("out-of-range QueryMany accepted")
	}
}

// TestQueryHighSourceAfterGrowth: queries at vertices created by graph
// growth work on every path.
func TestQueryHighSourceAfterGrowth(t *testing.T) {
	g := streamgraph.New(4, true)
	g.InsertEdges([]graph.Edge{{Src: 0, Dst: 1, W: 1}})
	sys := newSystem(t, g, "BFS")
	// Grow the graph past the standing state's size, then query the new
	// vertex region.
	sys.ApplyBatch([]graph.Edge{{Src: 1, Dst: 60, W: 1}})
	res, err := sys.Query("BFS", 60)
	if err != nil {
		t.Fatal(err)
	}
	full, err := sys.QueryFull("BFS", 60)
	if err != nil {
		t.Fatal(err)
	}
	for v := range full.Values {
		if res.Values[v] != full.Values[v] {
			t.Fatalf("growth query differs at %d", v)
		}
	}
	if res.Values[60] != 0 {
		t.Fatal("source of query not zero")
	}
}

// TestStandingSlotRecorded: the chosen standing query, property(u,r) and
// the number of lanes the meet read surface in the result for the simple
// problems.
func TestStandingSlotRecorded(t *testing.T) {
	edges := gen.Uniform(80, 700, 8, 83)
	g := streamgraph.New(80, false)
	g.InsertEdges(edges)
	sys := newSystem(t, g, "SSSP")
	res, err := sys.Query("SSSP", 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.StandingSlot < 0 || res.StandingSlot >= 4 {
		t.Fatalf("slot %d out of range", res.StandingSlot)
	}
	if res.PropUR == props.Unreached {
		t.Fatal("connected graph reported unreachable standing root")
	}
	if res.LanesMet < 1 || res.LanesMet > 4 {
		t.Fatalf("meet read %d lanes of a K=4 set", res.LanesMet)
	}
	full, err := sys.QueryFull("SSSP", 7)
	if err != nil {
		t.Fatal(err)
	}
	if full.LanesMet != 0 {
		t.Fatalf("full evaluation met %d lanes", full.LanesMet)
	}
}
