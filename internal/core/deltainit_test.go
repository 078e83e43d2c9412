package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/props"
	"tripoline/internal/standing"
	"tripoline/internal/streamgraph"
	"tripoline/internal/triangle"
)

// deltaInitSystem returns a K=16 system over an undirected 2^logN-vertex
// R-MAT graph with SSWP enabled — a min/max problem, so a Δ-query is
// little more than its Δ-initialization.
func deltaInitSystem(tb testing.TB, logN int) *System {
	tb.Helper()
	cfg := gen.Config{Name: "deltainit", LogN: logN, AvgDegree: 8, Seed: 5}
	sys := NewSystem(streamgraph.FromEdges(cfg.N(), gen.RMAT(cfg), false), 16)
	if err := sys.Enable("SSWP"); err != nil {
		tb.Fatal(err)
	}
	return sys
}

// TestDeltaQueryCopiesNoColumn locks in that a width-1 Δ-query reads its
// standing slot in place: at K=16 the slot is strided through the
// slot-blocked slab, and copying it out as a column first would double
// what the query allocates. Its one N-word array is the answer itself.
// It is skipped in -race builds (raceEnabled): the race detector's shadow
// memory inflates TotalAlloc past any limit that still tells one array
// from two.
func TestDeltaQueryCopiesNoColumn(t *testing.T) {
	if raceEnabled {
		t.Skip("race shadow memory inflates TotalAlloc")
	}
	const logN, queries = 14, 20
	sys := deltaInitSystem(t, logN)
	ctx := context.Background()
	// Warm the engine's pooled scratch, so the loop measures the query.
	if _, err := sys.QueryCtx(ctx, "SSWP", 1); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < queries; i++ {
		if _, err := sys.QueryCtx(ctx, "SSWP", graph.VertexID(i*811%(1<<logN))); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perQuery := float64(after.TotalAlloc-before.TotalAlloc) / queries
	if limit := 1.5 * 8 * (1 << logN); perQuery >= limit {
		t.Fatalf("a width-1 Δ-query allocates %.0f bytes on average, want < %.0f (1.5 N-word arrays)", perQuery, limit)
	}
}

// TestDeltaQueryFromASink locks the width-1 query path, which does not
// fill its answer with the init value first, on a source whose Δ-init
// meets over no root: a directed sink reaches none, so its answer is the
// init value everywhere but at the source.
func TestDeltaQueryFromASink(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 1, W: 2}, {Src: 1, Dst: 2, W: 2}, {Src: 2, Dst: 0, W: 2}, {Src: 2, Dst: 3, W: 2}}
	sys := NewSystem(streamgraph.FromEdges(4, edges, true), 2)
	if err := sys.Enable("SSSP"); err != nil {
		t.Fatal(err)
	}
	res, err := sys.QueryCtx(context.Background(), "SSSP", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Incremental {
		t.Fatal("the query did not take the Δ path")
	}
	for x, v := range res.Values {
		if want := uint64(props.Unreached); x == 3 && v != 0 || x != 3 && v != want {
			t.Fatalf("answer from sink 3: value(%d) = %d, want Unreached everywhere but 0 at 3", x, v)
		}
	}
}

// deltaInitSink keeps BenchmarkDeltaInit's results alive.
var deltaInitSink []uint64

// BenchmarkDeltaInit prices a width-1 Δ-initialization out of a K=16
// standing set at N=2^18: "column" copies the chosen slot of an SSWP set
// out of the slot-blocked slab (Manager.StandingColumn) and
// Δ-initializes from the copy (DeltaInitInto); "slab" is the query
// path's deltaInit on the same set, one pass that reads the slot in
// place (SSWP's meet keeps one lane); "meet" is deltaInit over a
// directed SSSP set, whose meet keeps several lanes. All include the
// answer's allocation. lanes/op is the lanes each meet read, and
// ns/word the time per word read (lanes × N), the price of Table 5's meet
// term.
func BenchmarkDeltaInit(b *testing.B) {
	const logN = 18
	set := deltaInitSystem(b, logN).ev.sets[0]
	p, n := set.Problem, set.Forward.N
	source := func(i int) graph.VertexID { return graph.VertexID(i * 7919 % (1 << logN)) }
	b.Run("column", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			u := source(i)
			slot, propUR := set.Select(u)
			dst := make([]uint64, n)
			triangle.DeltaInitInto(dst, p, u, propUR, set.StandingColumn(slot))
			deltaInitSink = dst
		}
	})
	slab := func(set *standing.Manager) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			lanes := 0
			start := time.Now()
			for i := 0; i < b.N; i++ {
				q, err := deltaInit(context.Background(), set, []graph.VertexID{source(i)})
				if err != nil {
					b.Fatal(err)
				}
				deltaInitSink = q.st.Values
				lanes += q.lanesMet
			}
			b.ReportMetric(float64(lanes)/float64(b.N), "lanes/op")
			if lanes > 0 {
				b.ReportMetric(float64(time.Since(start).Nanoseconds())/(float64(lanes)*float64(n)), "ns/word")
			}
		}
	}
	b.Run("slab", slab(set))
	cfg := gen.Config{Name: "deltainit-meet", LogN: logN, AvgDegree: 8, Directed: true, MaxWeight: 64, Seed: 5}
	sys := NewSystem(streamgraph.FromEdges(cfg.N(), gen.RMAT(cfg), true), 16)
	if err := sys.Enable("SSSP"); err != nil {
		b.Fatal(err)
	}
	b.Run("meet", slab(sys.ev.sets[0]))
}
