// Package standing maintains Tripoline's standing queries: the K
// pre-selected vertex-specific queries q(r_1..r_K) that are evaluated
// continuously and incrementally as the graph streams, and whose converged
// property arrays seed the Δ-based evaluation of arbitrary user queries.
//
// Selection follows §4.5: the K roots are the top-K out-degree vertices
// (topology-based selection, Eq. 14), and at user-query time the best of
// the K is picked by argmin property(u, r) under the problem's order
// (Eq. 15). Maintenance uses the batch mode of §4.5: all K queries share
// one combined frontier and one K-wide value array, so the graph and the
// value arrays are traversed once per update instead of K times. An
// insertion batch is absorbed by relaxing the arcs it stored and resuming
// from the endpoints that improved (Update); a deletion by witness-based
// trimming (UpdateDeletions).
//
// For directed graphs the manager additionally maintains the reversed
// standing query q⁻¹(r) (property(x, r) for all x) using the pull model
// over the same out-edge-only representation — the dual-model evaluation
// of §4.2 — because property(u, r) on a directed graph is not available
// from q(r) itself. Only its evaluation from scratch (Rebuild) pushes over
// a transient transposed copy instead.
package standing

import (
	"time"

	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/triangle"
)

// Manager owns one problem's standing queries over one streaming graph.
type Manager struct {
	Problem engine.Problem
	Roots   []graph.VertexID
	// Forward holds q(r_k): Forward.Value(x, k) = property(r_k, x).
	Forward *engine.State
	// Reverse holds q⁻¹(r_k) on directed graphs:
	// Reverse.Value(x, k) = property(x, r_k). Nil on undirected graphs,
	// where property(x, r) = property(r, x).
	Reverse *engine.State

	directed bool
	// LastMaintain is the wall time of the most recent Update (or the
	// initial evaluation), the quantity reported in Tables 5 and 6.
	LastMaintain time.Duration
	// TotalStats accumulates engine work across the lifetime.
	TotalStats engine.Stats
	// LastVersion is the snapshot version the standing state last
	// converged on, when the evaluation view carries one
	// (engine.Versioned) — every maintenance path records it; 0 when the
	// last view carried none.
	LastVersion uint64
	// versioned tells a recorded version 0 from "the last view had none".
	versioned bool
}

// New fully evaluates the K standing queries rooted at roots on the given
// mirror. directed selects dual-model maintenance.
func New(p engine.Problem, g engine.ArcView, roots []graph.VertexID, directed bool) *Manager {
	m := &Manager{Problem: p, Roots: roots, directed: directed}
	m.Rebuild(g)
	return m
}

// K returns the number of standing queries.
func (m *Manager) K() int { return len(m.Roots) }

// Update incrementally re-stabilizes every standing query after a batch of
// edge insertions. The state is a fixpoint of the graph before the batch,
// so only the arcs the batch stored can violate it (§2, Figure 2-(c)):
// each is relaxed once at all K slots — tail→head into Forward, head→tail
// into Reverse — and the evaluation resumes from the endpoints that
// improved. The cost follows the arcs stored and what they move, not the
// degrees of the vertices they touch.
//
// The arcs come from the view when it records them (engine.ArcDelta) and
// the state converged on exactly the version before it. Otherwise changed —
// the distinct source vertices of the new arcs, sorted, as returned by
// streamgraph.Graph.InsertEdges — stands in conservatively: every out-arc
// of a changed source is relaxed the same way.
func (m *Manager) Update(g engine.ArcView, changed []graph.VertexID) engine.Stats {
	start := time.Now()
	arcs := m.insertedArcs(g, changed)
	m.noteVersion(g)
	stats := m.Forward.RunPushArcs(g, arcs)
	if m.Reverse != nil {
		m.Reverse.RunPullArcs(g, arcs, &stats)
	}
	m.LastMaintain = time.Since(start)
	m.TotalStats.Add(stats)
	return stats
}

// insertedArcs returns the arcs Update must relax to carry the state onto
// g: the view's own insertion record when the state sits on the version
// just before it, else all out-arcs of changed, at the weights g holds
// (InsertEdges is first-wins, so never the batch's own weights).
func (m *Manager) insertedArcs(g engine.ArcView, changed []graph.VertexID) []graph.Edge {
	if d, ok := g.(engine.ArcDelta); ok && m.versioned && m.LastVersion+1 == d.Version() {
		if arcs, ok := d.InsertedArcs(); ok {
			return arcs
		}
	}
	total := 0
	for _, v := range changed {
		total += g.Degree(v)
	}
	arcs := make([]graph.Edge, 0, total)
	for _, v := range changed {
		dsts, ws := g.OutSpan(v)
		for i, d := range dsts {
			arcs = append(arcs, graph.Edge{Src: v, Dst: d, W: ws[i]})
		}
	}
	return arcs
}

// Rebuild evaluates every standing query from scratch on g, keeping the
// same roots: the initial evaluation (New) and re-rooting. On a directed
// graph q⁻¹(r) is evaluated as q(r) over g's arcs reversed — a push from
// the roots over a transient transposed copy of g relaxes the same arcs
// with the same function as the pull model, so it reaches the same
// fixpoint, at the push's lower cost per relaxation (EXPERIMENTS.md "One
// evaluation over the union"). Maintenance afterwards (Update,
// UpdateDeletions) pulls over g itself.
func (m *Manager) Rebuild(g engine.ArcView) engine.Stats {
	start := time.Now()
	m.noteVersion(g)
	m.Forward = m.rootedState(g)
	seeds, masks := engine.SourceSeeds(m.Roots)
	stats := m.Forward.RunPush(g, seeds, masks)
	if m.directed {
		m.Reverse = m.rootedState(g)
		stats.Add(m.Reverse.RunPush(transposed(g), seeds, masks))
	}
	m.LastMaintain = time.Since(start)
	m.TotalStats.Add(stats)
	return stats
}

// transposed returns g with every arc reversed. Tails are visited in
// ascending order, so each reversed span comes out sorted by destination,
// as an ArcView's must be.
func transposed(g engine.ArcView) *graph.CSR {
	n := g.NumVertices()
	off := make([]int64, n+1)
	for v := 0; v < n; v++ {
		dsts, _ := g.OutSpan(graph.VertexID(v))
		for _, d := range dsts {
			off[d+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	adj := make([]graph.VertexID, off[n])
	wgt := make([]graph.Weight, off[n])
	next := append([]int64(nil), off[:n]...)
	for v := 0; v < n; v++ {
		dsts, ws := g.OutSpan(graph.VertexID(v))
		for i, d := range dsts {
			adj[next[d]], wgt[next[d]] = graph.VertexID(v), ws[i]
			next[d]++
		}
	}
	return &graph.CSR{Off: off, Adj: adj, Wgt: wgt, N: n, Directed: true}
}

// rootedState allocates a width-K state over g with slot k's root at the
// source value and everything else at the init value.
func (m *Manager) rootedState(g engine.ArcView) *engine.State {
	st := engine.NewState(m.Problem, g.NumVertices(), len(m.Roots))
	for k, r := range m.Roots {
		st.SetSource(r, k)
	}
	return st
}

// PropURInto writes property(u, r_k) for every standing root into dst
// (grown when too small): on undirected graphs this is Forward.Value(u, k)
// (paths are symmetric); on directed graphs it comes from the reversed
// state. Hot paths that call it per query — or per slot, like Radii —
// reuse one buffer instead of allocating K words each time.
func (m *Manager) PropURInto(dst []uint64, u graph.VertexID) []uint64 {
	if cap(dst) < len(m.Roots) {
		dst = make([]uint64, len(m.Roots))
	} else {
		dst = dst[:len(m.Roots)]
	}
	src := m.Forward
	if m.directed {
		src = m.Reverse
	}
	for k := range m.Roots {
		dst[k] = src.Value(u, k)
	}
	return dst
}

// Select picks the best standing query for user source u (Eq. 15) and
// returns its slot and property(u, r_slot). K is at most 64, so the
// candidate properties fit a stack buffer and Select allocates nothing.
func (m *Manager) Select(u graph.VertexID) (slot int, propUR uint64) {
	var buf [64]uint64
	return triangle.SelectStanding(m.Problem, m.PropURInto(buf[:0], u))
}

// noteVersion records the snapshot version of the view the state is about
// to converge on, or that the view carries none.
func (m *Manager) noteVersion(g engine.ArcView) {
	m.LastVersion, m.versioned = 0, false
	if v, ok := g.(engine.Versioned); ok {
		m.StampVersion(v.Version())
	}
}

// StampVersion records that the state is converged on the given snapshot
// version. Every maintenance pass stamps the version of the view it ran
// over; a caller stamps directly when a version was published whose graph
// is the one the state already stands on (a deletion that removed
// nothing), so that no view of it has to be built just to say so.
func (m *Manager) StampVersion(version uint64) {
	m.LastVersion, m.versioned = version, true
}

// StandingColumn returns slot k's converged forward property column
// (property(r_k, x) for every x). It is a zero-copy view into the
// standing state at K=1, where the column is stored contiguously, and a
// parallel strided copy out of the slot-blocked storage at K>1; either
// way the caller must treat it as read-only and use it before the next
// maintenance pass. It is kept for probes and tests: the query path does
// not use it, but Δ-initializes from Forward.StrideView(k) in place
// (triangle.DeltaInitStrided).
func (m *Manager) StandingColumn(k int) []uint64 {
	if col, ok := m.Forward.ColumnView(k); ok {
		return col
	}
	return m.Forward.Column(k)
}
