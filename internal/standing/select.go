package standing

import (
	"cmp"
	"slices"

	"tripoline/internal/engine"
	"tripoline/internal/graph"
)

// The one rule a standing set's roots follow: the top-K out-degree
// vertices of the graph (Eq. 14), fully evaluated, then narrowed to the
// roots their meet uses over MeetSample (Narrow). Rooted builds a set by
// it and Reroot re-applies it to a set in place.

// Degrees is what topology-based root selection reads of a graph: every
// engine.ArcView has it, and so does a *streamgraph.Snapshot.
type Degrees interface {
	NumVertices() int
	Degree(v graph.VertexID) int
}

// TopDegreeRoots returns the k vertices of g of highest out-degree (all of
// them when k exceeds their number), ties going to the lower id — Eq. 14's
// topology-based selection.
func TopDegreeRoots(g Degrees, k int) []graph.VertexID {
	n := g.NumVertices()
	deg := make([]int, n)
	ids := make([]graph.VertexID, n)
	for v := range ids {
		ids[v] = graph.VertexID(v)
		deg[v] = g.Degree(ids[v])
	}
	slices.SortFunc(ids, func(a, b graph.VertexID) int {
		if c := cmp.Compare(deg[b], deg[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	// A copy, so the roots do not hold the whole ranking alive.
	return append([]graph.VertexID(nil), ids[:min(k, n)]...)
}

// Rooted builds p's standing set over g by the root rule, at most k roots
// wide. directed selects maintenance of the reversed queries as well.
func Rooted(p engine.Problem, g engine.ArcView, k int, directed bool) *Manager {
	m := &Manager{Problem: p, directed: directed}
	m.Reroot(g, k)
	return m
}

// Reroot re-applies the root rule to m over g, at most k roots wide: the
// roots are replaced and fully re-evaluated, so the set may widen again
// up to k. Subscribed lanes are kept.
func (m *Manager) Reroot(g engine.ArcView, k int) {
	m.Roots = TopDegreeRoots(g, k)
	m.Rebuild(g)
	m.Narrow(MeetSample(g))
}
