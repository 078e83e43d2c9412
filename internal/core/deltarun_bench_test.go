package core

import (
	"context"
	"testing"
	"time"

	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/streamgraph"
)

// BenchmarkDeltaRun times the engine run of a width-1 Δ-query alone, on
// the query-additive shape: a directed RMAT graph of 2^17 vertices at
// degree 16, 60 % preloaded, with a K=16 SSSP set. Each iteration
// Δ-initializes one query off the clock (deltaInit, the query path's own
// meet) and times its push from the source: what remains after the meet,
// the relaxations into values that are mostly exact already. Sources are
// vertices of out-degree > 2, as the benchmark draws them.
//
// relax/op, iters/op and acts/op are the run's work; ns/relax is the run's
// time per relaxation. Run it with a fixed count, e.g.
//
//	go test ./internal/core -run '^$' -bench DeltaRun -benchtime 50x
func BenchmarkDeltaRun(b *testing.B) {
	cfg := gen.Config{LogN: 17, AvgDegree: 16, Directed: true, Seed: 1}
	stream := gen.MakeStream(cfg.N(), gen.RMAT(cfg), true, 0.6, 10000, 1)
	g := streamgraph.New(cfg.N(), true)
	g.InsertEdges(stream.Initial)
	s := NewSystem(g, 16)
	if err := s.Enable("SSSP"); err != nil {
		b.Fatal(err)
	}
	set, view := s.ev.sets[0], s.current()
	sources := gen.SampleSources(view, 64, 1)
	ctx := context.Background()
	var relax, acts int64
	var iters int
	var elapsed time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		q, err := deltaInit(ctx, set, []graph.VertexID{sources[i%len(sources)]})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		t0 := time.Now()
		if err := q.run(ctx, view); err != nil {
			b.Fatal(err)
		}
		elapsed += time.Since(t0)
		relax += q.stats.Relaxations
		acts += q.stats.Activations
		iters += q.stats.Iterations
	}
	n := float64(b.N)
	b.ReportMetric(float64(relax)/n, "relax/op")
	b.ReportMetric(float64(acts)/n, "acts/op")
	b.ReportMetric(float64(iters)/n, "iters/op")
	if relax > 0 {
		b.ReportMetric(float64(elapsed.Nanoseconds())/float64(relax), "ns/relax")
	}
}
