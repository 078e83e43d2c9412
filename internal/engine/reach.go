package engine

import (
	"sync/atomic"

	"tripoline/internal/bitset"
	"tripoline/internal/graph"
	"tripoline/internal/parallel"
)

// Reachability sweeps used by trimmed deletion recovery (KickStarter-
// style, see package standing): after deleting edges, exactly the
// vertices forward-reachable from the deleted arcs' destinations may
// hold stale (too good) forward values, and exactly the vertices that
// can reach the deleted arcs' sources may hold stale reversed values.

// ForwardReachable returns the set of vertices reachable from seeds by
// following out-edges (seeds included).
func ForwardReachable(g View, seeds []graph.VertexID) *bitset.Atomic {
	n := g.NumVertices()
	reached := bitset.NewAtomic(n)
	fresh := bitset.NewAtomic(n)
	var frontier []graph.VertexID
	for _, s := range seeds {
		if int(s) < n && reached.TestAndSet(int(s)) {
			frontier = append(frontier, s)
		}
	}
	for len(frontier) > 0 {
		parallel.ForGrain(len(frontier), 64, func(i int) {
			g.ForEachOut(frontier[i], func(d graph.VertexID, _ graph.Weight) {
				if reached.TestAndSet(int(d)) {
					fresh.Set(int(d))
				}
			})
		})
		frontier = frontier[:0]
		fresh.ForEach(func(v int) { frontier = append(frontier, graph.VertexID(v)) })
		fresh.Reset()
	}
	return reached
}

// BackwardReachable returns the set of vertices that can reach any seed
// by following out-edges (seeds included). It uses pull-style fixpoint
// rounds so only the out-edge representation is needed.
func BackwardReachable(g View, seeds []graph.VertexID) *bitset.Atomic {
	n := g.NumVertices()
	reached := bitset.NewAtomic(n)
	for _, s := range seeds {
		if int(s) < n {
			reached.Set(int(s))
		}
	}
	for {
		var changed atomic.Bool
		parallel.ForGrain(n, 128, func(v int) {
			if reached.Get(v) {
				return
			}
			hit := false
			g.ForEachOut(graph.VertexID(v), func(d graph.VertexID, _ graph.Weight) {
				if !hit && reached.Get(int(d)) {
					hit = true
				}
			})
			if hit && reached.TestAndSet(v) {
				changed.Store(true)
			}
		})
		if !changed.Load() {
			return reached
		}
	}
}
