package standing

import (
	"slices"
	"time"

	"tripoline/internal/engine"
	"tripoline/internal/graph"
)

// The one rule a standing set's roots follow: the top-K out-degree
// vertices of the graph (Eq. 14), narrowed to the roots their meet uses
// over MeetSample (Narrow). Rooted builds a set by it and Reroot
// re-applies it to a set in place.

// Degrees is what topology-based root selection reads of a graph: every
// engine.ArcView has it, and so does a *streamgraph.Snapshot.
type Degrees interface {
	NumVertices() int
	Degree(v graph.VertexID) int
}

// TopDegreeRoots returns the k vertices of g of highest out-degree (all of
// them when k exceeds their number), ties going to the lower id — Eq. 14's
// topology-based selection. One pass keeps the best k seen so far in a
// sorted buffer; a vertex that does not beat the buffer's last costs one
// comparison, so at a standing set's k ≤ 64 the pass is O(N).
func TopDegreeRoots(g Degrees, k int) []graph.VertexID {
	k = max(0, min(k, g.NumVertices()))
	if k == 0 {
		return nil
	}
	roots := make([]graph.VertexID, 0, k)
	degs := make([]int, 0, k)
	for v := range g.NumVertices() {
		d := g.Degree(graph.VertexID(v))
		if len(roots) == k {
			if d <= degs[k-1] {
				continue
			}
			roots, degs = roots[:k-1], degs[:k-1]
		}
		// v follows every buffered vertex of its degree: they have lower ids.
		i := len(degs)
		for i > 0 && degs[i-1] < d {
			i--
		}
		roots, degs = slices.Insert(roots, i, graph.VertexID(v)), slices.Insert(degs, i, d)
	}
	return roots
}

// Rooted builds p's standing set over g by the root rule, at most k roots
// wide. directed selects maintenance of the reversed queries as well.
func Rooted(p engine.Problem, g engine.ArcView, k int, directed bool) *Manager {
	m := &Manager{Problem: p, directed: directed}
	m.Reroot(g, k)
	return m
}

// Reroot re-applies the root rule to m over g, at most k roots wide: the
// roots are replaced and re-evaluated, so the set may widen again up to k.
// Subscribed lanes are kept. Narrow decides on the state PropURInto reads
// — q⁻¹ on a directed graph, q on an undirected one — so only that state
// is evaluated at k. On a directed graph q is then evaluated once, from
// the kept roots alone: its columns are the exact fixpoints the width-k
// evaluation would have narrowed to, at a fraction of the work on sets
// whose meet keeps few roots. LastStats counts both evaluations.
func (m *Manager) Reroot(g engine.ArcView, k int) {
	start := time.Now()
	m.noteVersion(g)
	m.Roots = TopDegreeRoots(g, k)
	var stats engine.Stats
	if m.directed {
		m.Forward, m.Reverse = nil, m.evaluate(transposedOf(g), &stats)
		m.Narrow(MeetSample(g))
		m.Forward = m.evaluate(g, &stats)
	} else {
		m.Forward = m.evaluate(g, &stats)
		m.Narrow(MeetSample(g))
	}
	m.noteMaintain(start, stats)
}
