// Package oracle provides slow-but-obviously-correct sequential reference
// implementations of the graph problems. They share no code with the
// parallel engine (dense Bellman–Ford-style edge scans instead of
// frontier-based relaxation), making them an independent path for the
// test suite to validate the engine, the Δ-based evaluation, and the DD
// integration against.
package oracle

import (
	"tripoline/internal/engine"
	"tripoline/internal/graph"
)

// BestPath computes property(src, x) for every x by label-correcting
// iteration over all edges until a fixpoint. It is correct for every
// monotonic best-path problem in package props (BFS, SSSP, SSWP, SSNP,
// Viterbi, SSR).
func BestPath(g *graph.CSR, p engine.Problem, src graph.VertexID) []uint64 {
	vals := make([]uint64, g.N)
	for i := range vals {
		vals[i] = p.InitValue()
	}
	vals[src] = p.SourceValue()
	for changed := true; changed; {
		changed = false
		for v := 0; v < g.N; v++ {
			adj, wgt := g.OutSpan(graph.VertexID(v))
			for i, d := range adj {
				cand, ok := p.Relax(vals[v], wgt[i])
				if ok && p.Better(cand, vals[d]) {
					vals[d] = cand
					changed = true
				}
			}
		}
	}
	return vals
}

// BestPathTo computes property(x, dst) for every x (the reversed query
// q⁻¹) by running BestPath on the transposed graph.
func BestPathTo(g *graph.CSR, p engine.Problem, dst graph.VertexID) []uint64 {
	return BestPath(g.Transpose(), p, dst)
}

// CountShortestPaths returns BFS levels and the number of distinct
// shortest (fewest-edge) paths from src, computed by sequential
// level-order dynamic programming.
func CountShortestPaths(g *graph.CSR, src graph.VertexID) (levels, counts []uint64) {
	const unreached = ^uint64(0)
	levels = make([]uint64, g.N)
	counts = make([]uint64, g.N)
	for i := range levels {
		levels[i] = unreached
	}
	levels[src] = 0
	counts[src] = 1
	frontier := []graph.VertexID{src}
	for level := uint64(0); len(frontier) > 0; level++ {
		var next []graph.VertexID
		for _, u := range frontier {
			adj, _ := g.OutSpan(u)
			for _, d := range adj {
				if levels[d] == unreached {
					levels[d] = level + 1
					next = append(next, d)
				}
			}
		}
		frontier = next
	}
	// Accumulate counts in level order.
	order := make([][]graph.VertexID, 0)
	for v := 0; v < g.N; v++ {
		if levels[v] == unreached {
			continue
		}
		l := int(levels[v])
		for len(order) <= l {
			order = append(order, nil)
		}
		order[l] = append(order[l], graph.VertexID(v))
	}
	for _, layer := range order {
		for _, u := range layer {
			adj, _ := g.OutSpan(u)
			for _, d := range adj {
				if levels[d] == levels[u]+1 {
					counts[d] += counts[u]
				}
			}
		}
	}
	return levels, counts
}

// Components returns per-vertex component labels via union-find over the
// stored arcs (for undirected graphs these are the connected components;
// labels are the minimum vertex ID in each component).
func Components(g *graph.CSR) []uint64 {
	parent := make([]int, g.N)
	for i := range parent {
		parent[i] = i
	}
	var find func(x int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if ra < rb {
			parent[rb] = ra
		} else {
			parent[ra] = rb
		}
	}
	for v := 0; v < g.N; v++ {
		adj, _ := g.OutSpan(graph.VertexID(v))
		for _, d := range adj {
			union(v, int(d))
		}
	}
	labels := make([]uint64, g.N)
	// With union-by-min the root is already the minimum member.
	for v := range labels {
		labels[v] = uint64(find(v))
	}
	return labels
}
