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
// only for the level round — a plain BFS evaluation, Δ-initialized like any
// other — and recounts round two exactly.

// CountShortestPaths is round two: given the converged BFS levels from
// src, it returns the number of shortest paths from src to every vertex
// and the round's work (the paper's Table 4 reports this round). It walks
// each frontier vertex's out-span and keeps its work counts per worker
// (parallel.ForRangeID), so the arc loop pays no call and no shared atomic
// beyond the count it adds. ctx is checked once per BFS level; on
// cancellation it returns an *engine.CanceledError.
func CountShortestPaths(ctx context.Context, g engine.ArcView, src graph.VertexID, levels []uint64) ([]uint64, engine.Stats, error) {
	n := g.NumVertices()
	counts := make([]uint64, n)
	counts[src] = 1
	cur := []graph.VertexID{src}
	next := bitset.NewAtomic(n)
	var stats engine.Stats
	counters := make([]countWork, parallel.MaxWorkers())
	for len(cur) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, stats, &engine.CanceledError{Iterations: stats.Iterations, Cause: err}
		}
		stats.Iterations++
		parallel.ForRangeID(len(cur), 64, func(wid, start, end int) {
			c := &counters[wid]
			for _, u := range cur[start:end] {
				want := levels[u] + 1
				cu := atomic.LoadUint64(&counts[u])
				dsts, _ := g.OutSpan(u)
				c.acts++
				c.relax += int64(len(dsts))
				for _, d := range dsts {
					if levels[d] == want {
						atomic.AddUint64(&counts[d], cu)
						c.upd++
						next.Set(int(d))
					}
				}
			}
		})
		cur = cur[:0]
		next.ForEach(func(v int) { cur = append(cur, graph.VertexID(v)) })
		next.Reset()
	}
	for _, c := range counters {
		stats.Activations += c.acts
		stats.Relaxations += c.relax
		stats.Updates += c.upd
	}
	return counts, stats, nil
}

// countWork is one worker's share of a count round's work, padded to a
// cache line so neighboring workers do not share one.
type countWork struct {
	acts, relax, upd int64
	_                [5]int64
}
