package standing

import (
	"context"
	"math/bits"
	"math/rand"
	"runtime"
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
// batches. An iteration is a batch, and the b.N batches are run in
// updateSplitPasses passes, each from a freshly loaded graph and set built
// off the clock, so that every batch is timed that many times in one
// process; run it with a fixed count, e.g.
//
//	go test ./internal/standing -run '^$' -bench UpdateSplit -benchtime 6x
//
// The times are medians over the passes' batches. Beside them it reports
// what a batch cost in the model's own units: arcs stored and round-0
// relaxations per direction (measured on copies of the state, off the
// clock, in the first pass), and each push's median time per relaxation
// (fwd-ns/relax, rev-ns/relax), a relaxation being one (arc, slot) pair of
// the fused width-K push: the counterpart of BenchmarkDeltaRun's width-1
// ns/relax (internal/core), which Table 5's pick calibrates against.
// EXPERIMENTS.md records the series.
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
			// Per timed batch: publish, forward and reverse times and
			// each push's ns per relaxation.
			var publish, fwd, rev, fwdRelax, revRelax []float64
			var stored int
			var fwd0, rev0 engine.Stats
			b.ResetTimer()
			for pass := range updateSplitPasses {
				b.StopTimer()
				g := streamgraph.New(cfg.N(), true)
				snap, _ := g.InsertEdges(stream.Initial)
				// New builds the Graph's transpose, so every publish below
				// changes it in place.
				m := New(c.p, snap.Flatten(), TopDegreeRoots(snap, 16), true)
				runtime.GC()
				b.StartTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					var fwdState, revState *engine.State
					if pass == 0 {
						fwdState, revState = m.Forward.Clone(), m.Reverse.Clone()
					}
					prev := snap
					b.StartTimer()

					t0 := time.Now()
					snap, _ = g.InsertEdges(stream.Batches[i])
					t1 := time.Now()
					flat := snap.Flatten()
					arcs, _ := flat.InsertedArcs()
					fs := m.Forward.RunPushArcs(flat, arcs)
					t2 := time.Now()
					t := flat.Transposed()
					rarcs, _ := t.(engine.ArcDelta).InsertedArcs()
					rs := m.Reverse.RunPushArcs(t, rarcs)
					t3 := time.Now()

					b.StopTimer()
					publish = append(publish, float64(t1.Sub(t0).Nanoseconds()))
					fwd = append(fwd, float64(t2.Sub(t1).Nanoseconds()))
					rev = append(rev, float64(t3.Sub(t2).Nanoseconds()))
					fwdRelax = append(fwdRelax, float64(t2.Sub(t1).Nanoseconds())/float64(max(fs.Relaxations, 1)))
					revRelax = append(revRelax, float64(t3.Sub(t2).Nanoseconds())/float64(max(rs.Relaxations, 1)))
					prev.RetireFlat()
					if pass == 0 {
						stored += len(arcs)
						s0, _ := fwdState.RunPushArcsCtx(&oneRound{Context: context.Background()}, flat, arcs)
						fwd0.Add(s0)
						s0, _ = revState.RunPushArcsCtx(&oneRound{Context: context.Background()}, t, rarcs)
						rev0.Add(s0)
					}
					b.StartTimer()
				}
			}
			n := float64(b.N)
			b.ReportMetric(median(publish)/1e6, "publish-ms/batch")
			b.ReportMetric(median(fwd)/1e6, "fwd-ms/batch")
			b.ReportMetric(median(rev)/1e6, "rev-ms/batch")
			b.ReportMetric(float64(stored)/n, "stored-arcs/batch")
			b.ReportMetric(float64(fwd0.Relaxations)/n, "fwd-round0-relax/batch")
			b.ReportMetric(float64(rev0.Relaxations)/n, "rev-round0-relax/batch")
			b.ReportMetric(median(fwdRelax), "fwd-ns/relax")
			b.ReportMetric(median(revRelax), "rev-ns/relax")
		})
	}
}

// updateSplitPasses is how many times BenchmarkUpdateSplit times each
// batch: five samples a batch let its medians resolve a change of a few
// percent, where one could not resolve one under about 10 %.
const updateSplitPasses = 5

// median returns the median of xs, reordering them.
func median(xs []float64) float64 {
	slices.Sort(xs)
	if n := len(xs); n%2 == 0 {
		return (xs[n/2-1] + xs[n/2]) / 2
	}
	return xs[len(xs)/2]
}

// BenchmarkUpdateDeletions times the steps of UpdateDeletions apart on
// the shape of the benchmark's ingest-churn deletion batch: a directed
// RMAT graph of 2^15 vertices at degree 8, K=16 top-degree roots narrowed
// on MeetSample as the system narrows them, 32 subscribed lanes (the
// sample's first 32 sources) in one page, 100-edge deletion batches of
// stored arcs. The roots (Forward, then Reverse over the transpose) and
// then the lanes run their trim's steps in the order UpdateDeletions runs
// them, and each step is timed apart: the taint (the lanes' with its
// meets and settle test), the support, and the push — the residue's reset
// (roots to init, lanes to the meet) and the push from its boundary, for
// lanes with the record of what moved. The root times add both
// directions. One iteration is one batch; run it with a fixed count, e.g.
//
//	go test ./internal/standing -run '^$' -bench UpdateDeletions -benchtime 6x
//
// Beside the times it reports, per batch, the root values the taint marks
// (both directions) and those left to reset once support has cleared the
// exact ones, the lane values the settled taint marks and those left to
// reset, and how many lane values moved — the record DrainMoved hands the
// subscribers. SSWP and SSNP are plateau problems, whose witness taint
// covers much of what each slot reaches; Viterbi's saturated products
// plateau too; SSR's one reachability value plateaus everywhere; SSSP is
// additive and BFS counts hops. Each plateau problem also runs flood
// batches (/flood): each deletes 100 stored out-arcs of the set's first
// root, whose values every other value derives from.
func BenchmarkUpdateDeletions(b *testing.B) {
	for _, c := range []struct {
		p     engine.Problem
		flood bool
	}{
		{props.SSWP{}, false}, {props.SSWP{}, true}, {props.SSSP{}, false},
		{props.Viterbi{}, false}, {props.Viterbi{}, true}, {props.SSNP{}, false}, {props.SSNP{}, true},
		{props.SSR{}, false}, {props.SSR{}, true}, {props.BFS{}, false},
	} {
		p, name := c.p, c.p.Name()+"/2^15x8"
		if c.flood {
			name += "/flood"
		}
		b.Run(name, func(b *testing.B) {
			cfg := gen.Config{LogN: 15, AvgDegree: 8, Directed: true, Seed: 1}
			edges := gen.RMAT(cfg)
			g := streamgraph.New(cfg.N(), true)
			snap, _ := g.InsertEdges(edges)
			m := New(p, snap.Flatten(), TopDegreeRoots(snap, 16), true)
			sample := MeetSample(snap.Flatten())
			m.Narrow(sample)
			for _, s := range sample[:32] {
				col, _ := engine.Run(snap.Flatten(), p, []graph.VertexID{s})
				m.Install(s, col)
			}
			pg := m.pages[0]
			rng := rand.New(rand.NewSource(2))

			// [0] roots, [1] lanes.
			var taint, support, push [2]time.Duration
			var tainted, reset [2]int
			var moved int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				var del []graph.Edge
				if c.flood {
					dsts, ws := snap.Flatten().OutSpan(m.Roots[0])
					if len(dsts) == 0 {
						b.Fatalf("root %d has no out-arcs left", m.Roots[0])
					}
					for j := range dsts[:min(len(dsts), 100)] {
						del = append(del, graph.Edge{Src: m.Roots[0], Dst: dsts[j], W: ws[j]})
					}
				}
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
				in := flat.Transposed()
				b.StartTimer()

				for _, d := range []struct {
					st    *engine.State
					g, in engine.ArcView
					del   []graph.Edge
				}{{m.Forward, flat, in, del}, {m.Reverse, in, flat, graph.ReversedArcs(del)}} {
					t0 := time.Now()
					d.st.Grow(d.g.NumVertices())
					tm := m.taint(d.st, d.g, d.del, false, nil)
					taint[0] += time.Since(t0)
					if tm == nil {
						continue
					}
					tainted[0] += ones(tm)
					t1 := time.Now()
					residue := m.support(d.st, m.Roots, d.g, d.in, tm)
					t2 := time.Now()
					m.repairRoots(d.st, d.g, d.in, tm, residue)
					support[0] += t2.Sub(t1)
					push[0] += time.Since(t2)
					reset[0] += ones(tm)
				}
				t0 := time.Now()
				pg.st.Grow(flat.NumVertices())
				meets := m.laneMeets(pg)
				tm := m.taint(pg.st, flat, del, false, m.settler(pg, meets))
				taint[1] += time.Since(t0)
				if tm != nil {
					tainted[1] += ones(tm)
					t1 := time.Now()
					residue := m.support(pg.st, pg.sources[:pg.st.K], flat, in, tm)
					t2 := time.Now()
					m.repairLanes(pg, flat, in, tm, residue, meets)
					support[1] += t2.Sub(t1)
					push[1] += time.Since(t2)
					reset[1] += ones(tm)
				}

				b.StopTimer()
				m.DrainMoved(func(int, int) { moved++ })
				b.StartTimer()
			}
			n := float64(b.N)
			for i, who := range []string{"roots", "lane"} {
				b.ReportMetric(taint[i].Seconds()*1e3/n, who+"-taint-ms/batch")
				b.ReportMetric(support[i].Seconds()*1e3/n, who+"-support-ms/batch")
				b.ReportMetric(push[i].Seconds()*1e3/n, who+"-push-ms/batch")
				b.ReportMetric(float64(tainted[i])/n, who+"-tainted/batch")
				b.ReportMetric(float64(reset[i])/n, who+"-reset/batch")
			}
			b.ReportMetric(float64(moved)/n, "lane-moved/batch")
		})
	}
}

// ones counts the bits set over masks.
func ones(masks []uint64) (c int) {
	for _, mask := range masks {
		c += bits.OnesCount64(mask)
	}
	return c
}
