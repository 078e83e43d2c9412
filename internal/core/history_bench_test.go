package core_test

import (
	"context"
	"fmt"
	"testing"

	"tripoline/internal/core"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/streamgraph"
)

// BenchmarkQueryAtRetiredMirror prices the one query the closed-loop
// benchmark/ workloads never issue: QueryAtCtx on a retained version whose
// mirror the next batch retired, so there is no shared mirror to retain.
func BenchmarkQueryAtRetiredMirror(b *testing.B) {
	for _, logN := range []int{14, 16} {
		cfg := gen.Config{Name: "bench", LogN: logN, AvgDegree: 12, Directed: true, Seed: 7}
		edges := gen.RMAT(cfg)
		cut := len(edges) - 1000
		for _, problem := range []string{"SSSP", "BFS", "SSWP"} {
			b.Run(fmt.Sprintf("%s/2^%d", problem, logN), func(b *testing.B) {
				sys := core.NewSystem(streamgraph.FromEdges(cfg.N(), edges[:cut], true), 4)
				if err := sys.Enable(problem); err != nil {
					b.Fatal(err)
				}
				sys.EnableHistory(4)
				old := sys.Version()
				sys.ApplyBatch(edges[cut:]) // retires old's mirror
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					u := graph.VertexID((i * 7919) % cfg.N())
					if _, err := sys.QueryAtCtx(context.Background(), old, problem, u); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
