package standing

import (
	"context"
	"testing"
	"time"

	"tripoline/internal/engine"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/props"
	"tripoline/internal/streamgraph"
)

// oneRound expires at the engine's second round-boundary check, so an
// evaluation under it is its round 0 alone.
type oneRound struct {
	context.Context
	asked bool
}

func (c *oneRound) Err() error {
	if c.asked {
		return context.Canceled
	}
	c.asked = true
	return nil
}

// BenchmarkUpdateSplit times the parts of Update apart — the forward
// push over the mirror, the patch of the transposed mirror and the reverse
// push over it, each push entered through its arc round with the arcs the
// snapshot recorded — on the benchmark's write-path shapes: a directed
// RMAT graph, 60 % preloaded, K=16 top-degree roots, 10k-edge insert
// batches over the delta-patched flat mirror. One iteration is one batch;
// run it with a fixed count, e.g.
//
//	go test ./internal/standing -run '^$' -bench UpdateSplit -benchtime 6x
//
// The transposed mirror is patched inside FlattenFrom in production; here
// the benchmark carries its own with streamgraph.TransposeFrom, the same
// patch, so it can be timed on its own. Beside the times it reports what
// the batch cost in the model's own units: arcs stored and round-0
// relaxations per direction (measured on copies of the state, off the
// clock). EXPERIMENTS.md records the series.
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
			tr := streamgraph.TransposeFrom(snap.Flatten(), nil)

			var fwd, patch, rev time.Duration
			var stored int
			var fwd0, rev0 engine.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				prev := snap
				var changed []graph.VertexID
				snap, changed = g.InsertEdges(stream.Batches[i])
				flat := snap.FlattenFrom(prev.BuiltFlat(), changed)
				prev.RetireFlat()
				arcs, _ := flat.InsertedArcs()
				stored += len(arcs)
				s0, _ := m.Forward.Clone().RunPushArcsCtx(&oneRound{Context: context.Background()}, flat, arcs)
				fwd0.Add(s0)
				t := flat.Transposed()
				rarcs, _ := t.(engine.ArcDelta).InsertedArcs()
				s0, _ = m.Reverse.Clone().RunPushArcsCtx(&oneRound{Context: context.Background()}, t, rarcs)
				rev0.Add(s0)
				b.StartTimer()

				t0 := time.Now()
				m.Forward.RunPushArcs(flat, arcs)
				t1 := time.Now()
				next := streamgraph.TransposeFrom(flat, tr)
				t2 := time.Now()
				rarcs, _ = next.InsertedArcs()
				m.Reverse.RunPushArcs(next, rarcs)
				fwd += t1.Sub(t0)
				patch += t2.Sub(t1)
				rev += time.Since(t2)
				tr.Release()
				tr = next
			}
			tr.Release()
			n := float64(b.N)
			b.ReportMetric(fwd.Seconds()*1e3/n, "fwd-ms/batch")
			b.ReportMetric(patch.Seconds()*1e3/n, "transpose-ms/batch")
			b.ReportMetric(rev.Seconds()*1e3/n, "rev-ms/batch")
			b.ReportMetric(float64(stored)/n, "stored-arcs/batch")
			b.ReportMetric(float64(fwd0.Relaxations)/n, "fwd-round0-relax/batch")
			b.ReportMetric(float64(rev0.Relaxations)/n, "rev-round0-relax/batch")
		})
	}
}
