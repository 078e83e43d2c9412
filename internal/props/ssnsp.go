package props

import (
	"context"
	"slices"

	"tripoline/internal/engine"
	"tripoline/internal/graph"
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
// and the round's work (the paper's Table 4 reports this round). It is a
// plain walk in level order: a counting sort lists the reached vertices
// by level, each once, and every vertex of a level adds its count to
// each out-neighbor one level deeper. Counts are exact modulo 2^64, so a
// count may read 0 mid-DAG; the walk never reads a count to decide what
// to visit. It is sequential and atomic-free: one count is no faster
// split over workers, and the subscription refresh counts its lanes side
// by side instead. ctx is checked once per BFS level; on cancellation it
// returns an *engine.CanceledError.
func CountShortestPaths(ctx context.Context, g engine.ArcView, src graph.VertexID, levels []uint64) ([]uint64, engine.Stats, error) {
	n := g.NumVertices()
	// Level l's vertices are order[at[l]:at[l+1]], ascending. A BFS level
	// is below n; Unreached is not.
	at := []int{0}
	for _, l := range levels[:n] {
		if l < uint64(n) {
			for uint64(len(at)) <= l+1 {
				at = append(at, 0)
			}
			at[l+1]++
		}
	}
	for l := 1; l < len(at); l++ {
		at[l] += at[l-1]
	}
	order := make([]graph.VertexID, at[len(at)-1])
	fill := slices.Clone(at)
	for v, l := range levels[:n] {
		if l < uint64(n) {
			order[fill[l]] = graph.VertexID(v)
			fill[l]++
		}
	}
	counts := make([]uint64, n)
	counts[src] = 1
	var stats engine.Stats
	for l := 0; l+1 < len(at); l++ {
		if err := ctx.Err(); err != nil {
			return nil, stats, &engine.CanceledError{Iterations: stats.Iterations, Cause: err}
		}
		stats.Iterations++
		level := order[at[l]:at[l+1]]
		stats.Activations += int64(len(level))
		want := uint64(l) + 1
		for _, u := range level {
			cu := counts[u]
			dsts, _ := g.OutSpan(u)
			stats.Relaxations += int64(len(dsts))
			for _, d := range dsts {
				if levels[d] == want {
					counts[d] += cu
					stats.Updates++
				}
			}
		}
	}
	return counts, stats, nil
}
