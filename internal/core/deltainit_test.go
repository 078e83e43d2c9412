package core

import (
	"context"
	"runtime"
	"testing"

	"tripoline/internal/gen"
	"tripoline/internal/graph"
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

// deltaInitSink keeps BenchmarkDeltaInit's results alive.
var deltaInitSink []uint64

// BenchmarkDeltaInit prices a width-1 Δ-initialization out of a K=16
// standing set at N=2^18: "column" copies the chosen slot out of the
// slot-blocked slab (Manager.StandingColumn) and Δ-initializes from the
// copy (DeltaInitInto); "slab" is the query path's deltaInit, one pass
// that reads the slot in place. Both include the answer's allocation.
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
	b.Run("slab", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q, err := deltaInit(context.Background(), set, []graph.VertexID{source(i)})
			if err != nil {
				b.Fatal(err)
			}
			deltaInitSink = q.st.Values
		}
	})
}
