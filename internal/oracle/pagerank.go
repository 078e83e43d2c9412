package oracle

import (
	"math"

	"tripoline/internal/graph"
)

// PageRank mirrors props.PageRank's scheme — damped power iteration with
// uniform dangling-mass redistribution, started from the uniform
// distribution and stopped when the per-iteration L1 change drops below
// tol (or at maxIters) — in a strictly sequential, deterministic form.
// The parallel implementation accumulates contributions with atomic
// float adds, so its rounding depends on scheduling; comparisons against
// this oracle must allow a small per-vertex tolerance (the L1 stopping
// rule bounds the distance to the fixpoint by tol·d/(1−d), and the
// 0.85^maxIters contraction bounds the early-cap case, so 1e-6 is
// comfortable for both at the checker's graph sizes).
func PageRank(g *graph.CSR, damping float64, maxIters int, tol float64) []float64 {
	n := g.N
	if n == 0 {
		return nil
	}
	ranks := make([]float64, n)
	for i := range ranks {
		ranks[i] = 1.0 / float64(n)
	}
	contrib := make([]float64, n)
	for iter := 0; iter < maxIters; iter++ {
		for i := range contrib {
			contrib[i] = 0
		}
		dangling := 0.0
		for v := 0; v < n; v++ {
			adj, _ := g.OutSpan(graph.VertexID(v))
			if len(adj) == 0 {
				dangling += ranks[v]
				continue
			}
			share := ranks[v] / float64(len(adj))
			for _, d := range adj {
				contrib[d] += share
			}
		}
		base := (1 - damping) / float64(n)
		dshare := dangling / float64(n)
		delta := 0.0
		for v := 0; v < n; v++ {
			nv := base + damping*(contrib[v]+dshare)
			delta += math.Abs(nv - ranks[v])
			ranks[v] = nv
		}
		if delta < tol {
			break
		}
	}
	return ranks
}
