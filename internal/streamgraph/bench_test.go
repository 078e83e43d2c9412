package streamgraph

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"tripoline/internal/gen"
	"tripoline/internal/graph"
)

// BenchmarkPublishChain prices one insert batch of a steady-state chain
// at two benchmark shapes — 2^18 vertices × 4 (query-minmax) and 2^17 × 16
// (query-additive), directed RMAT, 60 % preloaded, 10k-edge batches from
// the rest — with the Graph's transpose attached and each parent snapshot
// retired once its child is published, as core's writer does. An
// iteration is one InsertEdges, step by step: pick (sort and first-wins
// filter), forward (the mirror's patch), transpose (its in-place change,
// which publish overlaps with the forward patch but which is timed here
// after it) and commit. Between batches, off the clock, two collections
// stand for the queries a workload answers between its batches, whose
// garbage empties the slab pools as it does there. It reports each
// step's time per batch and the slab misses per batch. When the stream
// runs out, the chain starts again from the preload off the clock.
func BenchmarkPublishChain(b *testing.B) {
	for _, shape := range []struct {
		name   string
		logN   int
		degree float64
	}{{"minmax-2^18x4", 18, 4}, {"additive-2^17x16", 17, 16}} {
		b.Run(shape.name, func(b *testing.B) {
			cfg := gen.Config{Name: "bench", LogN: shape.logN, AvgDegree: shape.degree, Directed: true, Seed: 7}
			edges := gen.RMAT(cfg)
			pre := len(edges) * 6 / 10
			const batchEdges = 10_000
			var g *Graph
			var stream []graph.Edge
			start := func() {
				g = FromEdges(cfg.N(), edges[:pre], true)
				g.Acquire().Flatten().Transposed()
				stream = edges[pre:]
			}
			start()
			var pick, forward, transpose time.Duration
			var misses int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if len(stream) < batchEdges {
					start()
				}
				runtime.GC()
				runtime.GC()
				b.StartTimer()
				batch := stream[:batchEdges]
				stream = stream[batchEdges:]
				missed := g.MirrorMetrics().SlabMisses.Value()

				g.mu.Lock()
				old := g.latest.Load()
				n := old.n
				for _, e := range batch {
					n = max(n, int(e.Src)+1, int(e.Dst)+1)
				}
				t0 := time.Now()
				rec, changed := g.pick(old.flat, batch, false)
				t1 := time.Now()
				f := g.patchMirror(old.flat, n, rec, changed, false)
				t2 := time.Now()
				g.shared.changeTranspose(g.shared.t, n, f.version, rec, false)
				t3 := time.Now()
				g.shared.head = f
				g.commit(old, f)
				g.mu.Unlock()
				old.RetireFlat()

				pick += t1.Sub(t0)
				forward += t2.Sub(t1)
				transpose += t3.Sub(t2)
				misses += g.MirrorMetrics().SlabMisses.Value() - missed
			}
			per := func(d time.Duration) float64 { return float64(d.Microseconds()) / float64(b.N) }
			b.ReportMetric(per(pick), "pick-us")
			b.ReportMetric(per(forward), "forward-us")
			b.ReportMetric(per(transpose), "transpose-us")
			b.ReportMetric(float64(misses)/float64(b.N), "misses/batch")
		})
	}
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
	f := g.Acquire().Flatten()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var count int64
		for v := 0; v < f.NumVertices(); v++ {
			dsts, _ := f.OutSpan(graph.VertexID(v))
			count += int64(len(dsts))
		}
		b.SetBytes(count * 8)
	}
}

// BenchmarkFlattenFromVsFull prices one mirror build per batch size: the
// patch that publishes a version — the parent mirror with the batch's
// record merged in — against a full build of the same version, a load of
// all its arcs into an empty mirror. Every iteration returns its slabs to
// the recycler, so both paths measure steady-state patch work rather than
// page allocation.
func BenchmarkFlattenFromVsFull(b *testing.B) {
	cfg := gen.Config{Name: "bench", LogN: 16, AvgDegree: 12, Directed: true, Seed: 6}
	edges := gen.RMAT(cfg)
	const maxBatch = 100_000
	base := edges[:len(edges)-maxBatch]
	tail := edges[len(edges)-maxBatch:]
	for _, size := range []int{100, 1_000, 10_000, 100_000} {
		g := FromEdges(cfg.N(), base, true)
		prev := g.Acquire().Flatten()
		snap, _ := g.InsertEdges(tail[:size])
		rec, _ := snap.Flatten().InsertedArcs()
		var all []graph.Edge
		for v := range snap.NumVertices() {
			dsts, ws := snap.Flatten().OutSpan(graph.VertexID(v))
			for i, d := range dsts {
				all = append(all, graph.Edge{Src: graph.VertexID(v), Dst: d, W: ws[i]})
			}
		}
		empty := New(snap.NumVertices(), true).Acquire().Flatten()
		sh := g.shared
		build := func(b *testing.B, from *Flat, arcs []graph.Edge) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				offs, slab := patch(sh, from, snap.NumVertices(), arcs, false)
				sh.rec.putOff(offs)
				sh.rec.putArc(slab)
			}
		}
		b.Run(fmt.Sprintf("delta/batch=%d", size), func(b *testing.B) { build(b, prev, rec) })
		b.Run(fmt.Sprintf("full/batch=%d", size), func(b *testing.B) { build(b, empty, all) })
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
