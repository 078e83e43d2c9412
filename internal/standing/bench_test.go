package standing

import (
	"context"
	"math/bits"
	"math/rand"
	"slices"
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

// BenchmarkUpdateSplit times the parts of Update apart — the publish of
// the batch's version (InsertEdges: the first-wins filter, the forward
// mirror's patch and the patch of the transpose the parent mirror hands
// over), the forward push over the mirror and the reverse push over its
// transpose, each push entered through its arc round with the arcs the
// snapshot recorded — on the benchmark's write-path shapes: a directed
// RMAT graph, 60 % preloaded, K=16 top-degree roots, 10k-edge insert
// batches. One iteration is one batch; run it with a fixed count, e.g.
//
//	go test ./internal/standing -run '^$' -bench UpdateSplit -benchtime 6x
//
// Beside the times it reports what the batch cost in the model's own
// units: arcs stored and round-0 relaxations per direction (measured on
// copies of the state, off the clock). EXPERIMENTS.md records the series.
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
			// New builds the mirror's transpose, so every publish below
			// patches the one its parent hands over.
			m := New(c.p, snap.Flatten(), roots, true)

			var publish, fwd, rev time.Duration
			var stored int
			var fwd0, rev0 engine.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fwdState, revState := m.Forward.Clone(), m.Reverse.Clone()
				prev := snap
				b.StartTimer()

				t0 := time.Now()
				snap, _ = g.InsertEdges(stream.Batches[i])
				t1 := time.Now()
				flat := snap.Flatten()
				arcs, _ := flat.InsertedArcs()
				m.Forward.RunPushArcs(flat, arcs)
				t2 := time.Now()
				t := flat.Transposed()
				rarcs, _ := t.(engine.ArcDelta).InsertedArcs()
				m.Reverse.RunPushArcs(t, rarcs)
				publish += t1.Sub(t0)
				fwd += t2.Sub(t1)
				rev += time.Since(t2)

				b.StopTimer()
				prev.RetireFlat()
				stored += len(arcs)
				s0, _ := fwdState.RunPushArcsCtx(&oneRound{Context: context.Background()}, flat, arcs)
				fwd0.Add(s0)
				s0, _ = revState.RunPushArcsCtx(&oneRound{Context: context.Background()}, t, rarcs)
				rev0.Add(s0)
				b.StartTimer()
			}
			n := float64(b.N)
			b.ReportMetric(publish.Seconds()*1e3/n, "publish-ms/batch")
			b.ReportMetric(fwd.Seconds()*1e3/n, "fwd-ms/batch")
			b.ReportMetric(rev.Seconds()*1e3/n, "rev-ms/batch")
			b.ReportMetric(float64(stored)/n, "stored-arcs/batch")
			b.ReportMetric(float64(fwd0.Relaxations)/n, "fwd-round0-relax/batch")
			b.ReportMetric(float64(rev0.Relaxations)/n, "rev-round0-relax/batch")
		})
	}
}

// BenchmarkUpdateDeletions times the parts of UpdateDeletions apart on
// the shape of the benchmark's ingest-churn deletion batch: a directed
// RMAT graph of 2^15 vertices at degree 8, K=16 top-degree roots narrowed
// on MeetSample as the system narrows them, 32 subscribed lanes (the
// sample's first 32 sources) in one page, 100-edge deletion batches of
// stored arcs. The roots' trim (Forward, then Reverse
// over the transpose), the lanes' taint and the lanes' repair from the
// meet are timed in that order, the order UpdateDeletions runs them in.
// One iteration is one batch; run it with a fixed count, e.g.
//
//	go test ./internal/standing -run '^$' -bench UpdateDeletions -benchtime 6x
//
// Beside the times it reports the lanes' tainted values per batch and how
// many of them the repair moved — the record DrainMoved hands the
// subscribers. SSWP is a plateau problem, whose taint covers about half of
// what each lane reaches; SSSP is additive.
func BenchmarkUpdateDeletions(b *testing.B) {
	for _, p := range []engine.Problem{props.SSWP{}, props.SSSP{}} {
		b.Run(p.Name()+"/2^15x8", func(b *testing.B) {
			cfg := gen.Config{LogN: 15, AvgDegree: 8, Directed: true, Seed: 1}
			edges := gen.RMAT(cfg)
			g := streamgraph.New(cfg.N(), true)
			snap, _ := g.InsertEdges(edges)
			m := New(p, snap.Flatten(), gen.TopDegreeVertices(cfg.N(), edges, true, 16), true)
			sample := MeetSample(snap.Flatten())
			m.Narrow(sample)
			for _, s := range sample[:32] {
				col, _ := engine.Run(snap.Flatten(), p, []graph.VertexID{s})
				m.Install(s, col)
			}
			pg := m.pages[0]
			rng := rand.New(rand.NewSource(2))

			var roots, taint, repair time.Duration
			var tainted, moved int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				var del []graph.Edge
				for len(del) < 100 {
					e := edges[rng.Intn(len(edges))]
					if w, ok := snap.HasEdge(e.Src, e.Dst); ok && !slices.ContainsFunc(del, func(d graph.Edge) bool { return d.Src == e.Src && d.Dst == e.Dst }) {
						del = append(del, graph.Edge{Src: e.Src, Dst: e.Dst, W: w})
					}
				}
				prev := snap
				snap, _ = g.DeleteEdges(del)
				prev.RetireFlat()
				flat := snap.Flatten()
				b.StartTimer()

				t0 := time.Now()
				in := flat.Transposed()
				m.trim(m.Forward, m.Roots, flat, in, del, false)
				m.trimReverse(flat, del, false)
				t1 := time.Now()
				pg.st.Grow(flat.NumVertices())
				tm := m.taint(pg.st, flat, del, false)
				t2 := time.Now()
				if tm != nil {
					m.repairLanes(pg, flat, in, tm)
				}
				roots += t1.Sub(t0)
				taint += t2.Sub(t1)
				repair += time.Since(t2)

				b.StopTimer()
				for _, mask := range tm {
					tainted += bits.OnesCount64(mask)
				}
				m.DrainMoved(func(int, int) { moved++ })
				b.StartTimer()
			}
			n := float64(b.N)
			b.ReportMetric(roots.Seconds()*1e3/n, "roots-ms/batch")
			b.ReportMetric(taint.Seconds()*1e3/n, "lane-taint-ms/batch")
			b.ReportMetric(repair.Seconds()*1e3/n, "lane-repair-ms/batch")
			b.ReportMetric(float64(tainted)/n, "lane-tainted/batch")
			b.ReportMetric(float64(moved)/n, "lane-moved/batch")
		})
	}
}
