package streamgraph

import (
	"fmt"
	"testing"

	"tripoline/internal/gen"
	"tripoline/internal/graph"
)

func BenchmarkInsertBatch10K(b *testing.B) {
	cfg := gen.Config{Name: "bench", LogN: 15, AvgDegree: 12, Directed: true, Seed: 1}
	edges := gen.RMAT(cfg)
	base := edges[:len(edges)-10_000*2]
	batch := edges[len(edges)-10_000 : len(edges)]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := FromEdges(cfg.N(), base, true)
		b.StartTimer()
		g.InsertEdges(batch)
	}
	b.SetBytes(int64(len(batch)) * 12)
}

func BenchmarkSnapshotDegreeScan(b *testing.B) {
	cfg := gen.Config{Name: "bench", LogN: 14, AvgDegree: 12, Directed: true, Seed: 2}
	g := FromEdges(cfg.N(), gen.RMAT(cfg), true)
	snap := g.Acquire()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var total int
		for v := 0; v < snap.NumVertices(); v++ {
			total += snap.Degree(graph.VertexID(v))
		}
		_ = total
	}
}

func BenchmarkSnapshotEdgeTraversal(b *testing.B) {
	cfg := gen.Config{Name: "bench", LogN: 14, AvgDegree: 12, Directed: true, Seed: 3}
	g := FromEdges(cfg.N(), gen.RMAT(cfg), true)
	snap := g.Acquire()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var count int64
		for v := 0; v < snap.NumVertices(); v++ {
			snap.ForEachOut(graph.VertexID(v), func(graph.VertexID, graph.Weight) { count++ })
		}
		b.SetBytes(count * 8)
	}
}

// BenchmarkFlattenFromVsFull prices one mirror build per batch size: the
// delta patch from the parent mirror (MaterializeFlatFrom) against a
// full rebuild (MaterializeFlat) of the same snapshot. Every iteration
// releases its mirror back to the recycler, so both paths measure
// steady-state patch/walk work rather than page allocation.
func BenchmarkFlattenFromVsFull(b *testing.B) {
	cfg := gen.Config{Name: "bench", LogN: 16, AvgDegree: 12, Directed: true, Seed: 6}
	edges := gen.RMAT(cfg)
	const maxBatch = 100_000
	base := edges[:len(edges)-maxBatch]
	tail := edges[len(edges)-maxBatch:]
	for _, size := range []int{100, 1_000, 10_000, 100_000} {
		g := FromEdges(cfg.N(), base, true)
		prev := g.Acquire().Flatten()
		snap2, changed := g.InsertEdges(tail[:size])
		b.Run(fmt.Sprintf("delta/batch=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f := snap2.MaterializeFlatFrom(prev, changed)
				f.Release()
			}
		})
		b.Run(fmt.Sprintf("full/batch=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f := snap2.MaterializeFlat()
				f.Release()
			}
		})
	}
}

func BenchmarkDeleteBatch(b *testing.B) {
	cfg := gen.Config{Name: "bench", LogN: 14, AvgDegree: 12, Directed: true, Seed: 4}
	edges := gen.RMAT(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := FromEdges(cfg.N(), edges, true)
		b.StartTimer()
		g.DeleteEdges(edges[:5000])
	}
}

func BenchmarkCSRMaterialization(b *testing.B) {
	cfg := gen.Config{Name: "bench", LogN: 14, AvgDegree: 12, Directed: true, Seed: 5}
	g := FromEdges(cfg.N(), gen.RMAT(cfg), true)
	snap := g.Acquire()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.CSR(true)
	}
}
