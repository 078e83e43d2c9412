package engine_test

import (
	"testing"

	"tripoline/internal/engine"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/props"
	"tripoline/internal/streamgraph"
)

func benchGraph(b *testing.B) *graph.CSR {
	b.Helper()
	cfg := gen.Config{Name: "bench", LogN: 14, AvgDegree: 16, Directed: false, Seed: 1}
	return graph.FromEdges(cfg.N(), gen.RMAT(cfg), false)
}

func BenchmarkPushBFS(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Run(g, props.BFS{}, []graph.VertexID{0})
	}
	b.SetBytes(g.NumEdges())
}

func BenchmarkPushSSSP(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Run(g, props.SSSP{}, []graph.VertexID{0})
	}
	b.SetBytes(g.NumEdges())
}

func BenchmarkPushSSSPBatch16(b *testing.B) {
	g := benchGraph(b)
	sources := make([]graph.VertexID, 16)
	for i := range sources {
		sources[i] = graph.VertexID(i * 97)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Run(g, props.SSSP{}, sources)
	}
}

func BenchmarkIncrementalResume(b *testing.B) {
	// Cost of re-stabilizing one standing query after a 1K-edge batch.
	cfg := gen.Config{Name: "bench", LogN: 14, AvgDegree: 16, Directed: false, Seed: 3}
	edges := gen.RMAT(cfg)
	cut := len(edges) - 1000
	sg := streamgraph.FromEdges(cfg.N(), edges[:cut], false)
	st, _ := engine.Run(sg.Acquire().Flatten(), props.SSSP{}, []graph.VertexID{0})
	snap, changed := sg.InsertEdges(edges[cut:])
	flat := snap.Flatten()
	masks := make([]uint64, len(changed))
	for i := range masks {
		masks[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Resuming an already-converged state is idempotent, so each
		// iteration measures the verification sweep from the batch seeds.
		st.RunPush(flat, changed, masks)
	}
}
