package standing

import (
	"sort"
	"sync"

	"tripoline/internal/engine"
	"tripoline/internal/graph"
)

// Query-distribution-aware standing root selection — the refinement §5
// of the paper sketches ("the standing query selection might be further
// improved based on the distribution of user queries when it is
// available"). When a workload history exists, roots can be chosen to
// serve the vertices users actually query rather than the graph at
// large.

// QueryHistogram counts observed user-query sources. It is safe for
// concurrent use: queries from parallel readers all funnel through
// Observe.
type QueryHistogram struct {
	mu     sync.Mutex
	counts map[graph.VertexID]uint64
	total  uint64
}

// NewQueryHistogram returns an empty histogram.
func NewQueryHistogram() *QueryHistogram {
	return &QueryHistogram{counts: make(map[graph.VertexID]uint64)}
}

// Observe records one user query rooted at u.
func (h *QueryHistogram) Observe(u graph.VertexID) {
	h.mu.Lock()
	h.counts[u]++
	h.total++
	h.mu.Unlock()
}

// Total returns the number of observations.
func (h *QueryHistogram) Total() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// snapshot returns a consistent copy of the counts and total for the
// scoring pass of WeightedRoots.
func (h *QueryHistogram) snapshot() (map[graph.VertexID]uint64, uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	counts := make(map[graph.VertexID]uint64, len(h.counts))
	for u, c := range h.counts {
		counts[u] = c
	}
	return counts, h.total
}

// Degrees is what topology-based root selection reads of a graph: every
// engine.ArcView has it, and so does the tree-backed *streamgraph.Snapshot.
type Degrees interface {
	NumVertices() int
	Degree(v graph.VertexID) int
}

// DegreeScores scores every vertex of g by its out-degree — Eq. 14's
// topology rule.
func DegreeScores(g Degrees) []float64 {
	score := make([]float64, g.NumVertices())
	for v := range score {
		score[v] = float64(g.Degree(graph.VertexID(v)))
	}
	return score
}

// TopRoots returns the k highest-scored vertices (all of them when k
// exceeds their number), ties going to the lower id: the one ranking
// every standing root selection takes its roots from.
func TopRoots(score []float64, k int) []graph.VertexID {
	ids := make([]graph.VertexID, len(score))
	for i := range ids {
		ids[i] = graph.VertexID(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		if score[ids[a]] != score[ids[b]] {
			return score[ids[a]] > score[ids[b]]
		}
		return ids[a] < ids[b]
	})
	// A copy, so the roots do not hold the whole ranking alive.
	return append([]graph.VertexID(nil), ids[:min(k, len(ids))]...)
}

// WeightedRoots selects k standing roots that balance topology (Eq. 14's
// degree heuristic) against the observed query distribution: each
// candidate's score is its out-degree plus, for each historically
// queried vertex it is close to — here approximated by direct
// adjacency — the query frequency mass it covers. With an empty history
// the selection degenerates to the plain top-degree rule, so callers can
// use it unconditionally.
func WeightedRoots(g engine.ArcView, h *QueryHistogram, k int) []graph.VertexID {
	n := g.NumVertices()
	score := DegreeScores(g)
	var counts map[graph.VertexID]uint64
	var total uint64
	if h != nil {
		counts, total = h.snapshot()
	}
	if total > 0 {
		// A root adjacent to (or identical with) frequently queried
		// vertices yields small property(u, r) for those queries — the
		// quantity Eq. 15 minimizes. Spread each queried vertex's mass
		// onto itself and its out-neighbors. The weight scales with the
		// average degree so history can actually outvote raw topology.
		avgDeg := 1.0
		if n > 0 {
			var m float64
			for _, d := range score {
				m += d
			}
			avgDeg = m / float64(n)
		}
		boost := 4 * avgDeg / float64(total)
		for u, c := range counts {
			if int(u) >= n {
				continue
			}
			w := boost * float64(c)
			score[u] += w
			adj, _ := g.OutSpan(u)
			for _, d := range adj {
				score[d] += w
			}
		}
	}
	return TopRoots(score, k)
}
