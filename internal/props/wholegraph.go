package props

import (
	"context"
	"math"
	"sync/atomic"

	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/parallel"
)

// This file implements the non-vertex-specific ("whole graph") queries
// PageRank and connected components. They need no triangle inequality:
// Tripoline maintains them incrementally as standing queries in the
// classic way (§4.3) — after a graph update, evaluation simply resumes
// from the previous converged values.

// CCLabel is the min-label propagation problem underlying connected
// components: every vertex starts holding its own ID and labels flow along
// edges, each vertex keeping the minimum it has seen. Monotonic and
// async-safe.
type CCLabel struct{}

func (CCLabel) Name() string        { return "CC" }
func (CCLabel) InitValue() uint64   { return Unreached }
func (CCLabel) SourceValue() uint64 { return 0 }

func (CCLabel) Relax(srcVal uint64, _ graph.Weight) (uint64, bool) {
	if srcVal == Unreached {
		return 0, false
	}
	return srcVal, true
}

func (CCLabel) Better(a, b uint64) bool { return a < b }
func (CCLabel) Combine(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// NewCCState returns the state connected components starts from over n
// vertices — every vertex holding its own ID — and its first frontier,
// every vertex.
func NewCCState(n int) (st *engine.State, seeds []graph.VertexID, masks []uint64) {
	st = engine.NewState(CCLabel{}, n, 1)
	seeds = make([]graph.VertexID, n)
	for v := range seeds {
		st.Values[v] = uint64(v)
		seeds[v] = graph.VertexID(v)
	}
	return st, seeds, onesMasks(n)
}

// GrowCCState extends converged CC labels to n vertices, each new vertex
// holding its own ID.
func GrowCCState(st *engine.State, n int) {
	old := st.N
	st.Grow(n)
	for v := old; v < n; v++ {
		st.Values[v] = uint64(v)
	}
}

// onesMasks is the K=1 seed mask list: slot 0 active at each of n seeds.
func onesMasks(n int) []uint64 {
	masks := make([]uint64, n)
	for i := range masks {
		masks[i] = 1
	}
	return masks
}

// ConnectedComponents computes per-vertex component labels (the minimum
// vertex ID in the component, following arcs in the stored direction — on
// undirected graphs these are the true connected components).
func ConnectedComponents(g engine.ArcView) (*engine.State, engine.Stats) {
	st, stats, _ := ConnectedComponentsCtx(context.Background(), g)
	return st, stats
}

// ConnectedComponentsCtx is ConnectedComponents with cooperative
// cancellation at superstep boundaries (see engine.RunPushCtx).
func ConnectedComponentsCtx(ctx context.Context, g engine.ArcView) (*engine.State, engine.Stats, error) {
	st, seeds, masks := NewCCState(g.NumVertices())
	stats, err := st.RunPushCtx(ctx, g, seeds, masks)
	return st, stats, err
}

// ResumeConnectedComponents incrementally re-stabilizes CC labels after a
// batch of edge insertions whose distinct sources are changed.
func ResumeConnectedComponents(g engine.ArcView, st *engine.State, changed []graph.VertexID) engine.Stats {
	GrowCCState(st, g.NumVertices())
	return st.RunPush(g, changed, onesMasks(len(changed)))
}

// PageRankResult holds ranks and the work performed.
type PageRankResult struct {
	Ranks      []float64
	Iterations int
	Delta      float64 // L1 change in the final iteration
}

// PageRank is PageRankCtx for the writer, whose maintenance is not
// cancellable.
func PageRank(g engine.ArcView, init []float64, damping float64, maxIters int, tol float64) *PageRankResult {
	res, _ := PageRankCtx(context.Background(), g, init, damping, maxIters, tol)
	return res
}

// PageRankCtx runs damped PageRank to the given L1 tolerance (or
// maxIters), checking ctx once per iteration. It starts from init, prior
// ranks (the incremental, "standing query" mode: after a graph update,
// resuming from the previous converged ranks re-stabilizes in a handful of
// iterations), or from the uniform distribution when init is nil.
// Vertices init lacks start at zero; each iteration restores a share of
// the missing mass. On cancellation it returns (nil,
// *engine.CanceledError). init is never mutated.
func PageRankCtx(ctx context.Context, g engine.ArcView, init []float64, damping float64, maxIters int, tol float64) (*PageRankResult, error) {
	n := g.NumVertices()
	ranks := make([]float64, n)
	if init == nil {
		for v := range ranks {
			ranks[v] = 1.0 / float64(n)
		}
	}
	copy(ranks, init)
	contrib := make([]uint64, n) // float64 bits, accumulated atomically
	res := &PageRankResult{Ranks: ranks}
	for iter := 0; iter < maxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, &engine.CanceledError{Iterations: res.Iterations, Cause: err}
		}
		res.Iterations++
		parallel.For(n, func(v int) { contrib[v] = 0 })
		// Scatter: each vertex pushes rank/deg to its out-neighbors.
		// Dangling mass is redistributed uniformly.
		var danglingBits atomic.Uint64
		parallel.ForGrain(n, 64, func(v int) {
			dsts, _ := g.OutSpan(graph.VertexID(v))
			if len(dsts) == 0 {
				atomicAddFloat(&danglingBits, ranks[v])
				return
			}
			share := ranks[v] / float64(len(dsts))
			for _, d := range dsts {
				atomicAddFloatBits(&contrib[d], share)
			}
		})
		dangling := math.Float64frombits(danglingBits.Load()) / float64(n)
		base := (1 - damping) / float64(n)
		var deltaBits atomic.Uint64
		parallel.ForGrain(n, 256, func(v int) {
			nv := base + damping*(math.Float64frombits(contrib[v])+dangling)
			d := math.Abs(nv - ranks[v])
			ranks[v] = nv
			atomicAddFloat(&deltaBits, d)
		})
		res.Delta = math.Float64frombits(deltaBits.Load())
		if res.Delta < tol {
			break
		}
	}
	return res, nil
}

// atomicAddFloat adds v to the float64 stored (as bits) in an atomic
// uint64 via a CAS loop.
func atomicAddFloat(addr *atomic.Uint64, v float64) {
	for {
		old := addr.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if addr.CompareAndSwap(old, nv) {
			return
		}
	}
}

// atomicAddFloatBits is atomicAddFloat over a plain uint64 word.
func atomicAddFloatBits(addr *uint64, v float64) {
	for {
		old := atomic.LoadUint64(addr)
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(addr, old, nv) {
			return
		}
	}
}
