package standing

import (
	"testing"
	"time"

	"tripoline/internal/engine"
	"tripoline/internal/gen"
	"tripoline/internal/props"
	"tripoline/internal/streamgraph"
)

// BenchmarkUpdateSplit times the two halves of Update apart — the forward
// push and the reverse pull — on the benchmark's write-path shapes: a
// directed RMAT graph, 60 % preloaded, K=16 top-degree roots, 10k-edge
// insert batches over the flat mirror. One iteration is one batch; run it
// with a fixed count, e.g.
//
//	go test ./internal/standing -run '^$' -bench UpdateSplit -benchtime 6x
//
// (EXPERIMENTS.md records the before/after of the change-driven pull).
func BenchmarkUpdateSplit(b *testing.B) {
	for _, c := range []struct {
		name         string
		p            engine.Problem
		logN, degree int
	}{
		{"SSSP/2^17x16", props.SSSP{}, 17, 16},
		{"BFS/2^17x16", props.BFS{}, 17, 16},
		{"SSWP/2^18x4", props.SSWP{}, 18, 4},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := gen.Config{LogN: c.logN, AvgDegree: float64(c.degree), Directed: true, Seed: 1}
			stream := gen.MakeStream(cfg.N(), gen.RMAT(cfg), true, 0.6, 10_000, 1)
			if b.N > len(stream.Batches) {
				b.Skipf("stream holds %d batches", len(stream.Batches))
			}
			g := streamgraph.New(cfg.N(), true)
			snap, _ := g.InsertEdges(stream.Initial)
			roots := gen.TopDegreeVertices(cfg.N(), stream.Initial, true, 16)
			m := New(c.p, snap.Flatten(), roots, true)
			masks := make([]uint64, 0, 10_000)

			var fwd, rev time.Duration
			var revStats engine.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				snap, changed := g.InsertEdges(stream.Batches[i])
				flat := snap.Flatten()
				masks = masks[:0]
				for range changed {
					masks = append(masks, maskFor(16))
				}
				b.StartTimer()

				t0 := time.Now()
				m.Forward.Grow(flat.NumVertices())
				m.Forward.RunPush(flat, changed, masks)
				t1 := time.Now()
				m.Reverse.Grow(flat.NumVertices())
				m.Reverse.RunPull(flat, changed, &revStats)
				fwd += t1.Sub(t0)
				rev += time.Since(t1)
			}
			n := float64(b.N)
			b.ReportMetric(fwd.Seconds()*1e3/n, "fwd-ms/batch")
			b.ReportMetric(rev.Seconds()*1e3/n, "rev-ms/batch")
			b.ReportMetric(float64(revStats.Iterations)/n, "rev-rounds/batch")
			b.ReportMetric(float64(revStats.Relaxations)/n/1e6, "rev-Mrelax/batch")
			b.ReportMetric(float64(revStats.Activations)/n/1e6, "rev-Mact/batch")
		})
	}
}
