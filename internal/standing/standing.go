// Package standing maintains Tripoline's standing queries: the
// pre-selected vertex-specific queries q(r_1..r_K) that are evaluated
// continuously and incrementally as the graph streams, and whose converged
// property arrays seed the Δ-based evaluation of arbitrary user queries.
//
// Selection follows §4.5: the candidate roots are the top-K out-degree
// vertices (topology-based selection, Eq. 14), and at user-query time the
// best of them is picked by argmin property(u, r) under the problem's
// order (Eq. 15). A query Δ-initializes from the meet over every root no
// other root dominates (Meet). K is an upper bound, not a fixed width:
// Narrow drops the roots no meet over a sample of sources keeps — on
// min/max problems all but one, usually — so a set maintains only the
// columns queries read. Maintenance uses the batch mode of §4.5: all K
// queries share one combined frontier and one K-wide value array, so the
// graph and the value arrays are traversed once per update instead of K
// times. An insertion batch is absorbed by relaxing the arcs it stored and
// resuming from the endpoints that improved (Update); a deletion by
// witness-based trimming (UpdateDeletions).
//
// For directed graphs the manager additionally maintains the reversed
// standing query q⁻¹(r) (property(x, r) for all x), because property(u, r)
// on a directed graph is not available from q(r) itself. q⁻¹(r) is q(r)
// over the graph with every arc reversed, so every path — build, insertion,
// deletion — is the forward one run over the view's transposed mirror
// (engine.Transposer) with the arcs reversed. The paper evaluates q⁻¹ by
// pulling over the out-edges alone (§4.2); the transposed mirror costs one
// more copy of the arcs and removes the pull's whole-graph sweeps.
//
// Beside the roots, a manager maintains subscribed lanes in the same passes
// (lanes.go): the answers q(s) of subscribed sources, in pages of ≤64.
package standing

import (
	"math/bits"
	"time"

	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/streamgraph"
	"tripoline/internal/triangle"
	"tripoline/internal/xrand"
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

	// directed is the graph's orientation. pages hold the subscribed lanes.
	directed bool
	pages    []*page
	// LastMaintain is the wall time of the most recent Update (or the
	// initial evaluation), the quantity reported in Tables 5 and 6.
	LastMaintain time.Duration
	// TotalStats accumulates the roots' engine work (not the lanes', like
	// every Stats a maintenance pass returns) across the lifetime.
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
// mirror. directed selects maintenance of the reversed queries as well.
func New(p engine.Problem, g engine.ArcView, roots []graph.VertexID, directed bool) *Manager {
	m := &Manager{Problem: p, Roots: roots, directed: directed}
	m.Rebuild(g)
	return m
}

// K returns the number of standing queries: the width the set was built
// at, or less once Narrow has dropped roots.
func (m *Manager) K() int { return len(m.Roots) }

// Update incrementally re-stabilizes every standing query after a batch of
// edge insertions. The state is a fixpoint of the graph before the batch,
// so only the arcs the batch stored can violate it (§2, Figure 2-(c)):
// each is relaxed once at all K slots — tail→head into Forward and every
// page of subscribed lanes over g, and reversed into Reverse over g's
// transposed view — and the evaluation resumes from the heads that
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
	arcs, ok := m.recorded(g)
	if !ok {
		arcs = outArcs(g, changed)
	}
	stats := m.Forward.RunPushArcs(g, arcs)
	for _, pg := range m.pages {
		pg.st.RunPushArcs(g, arcs)
	}
	if m.Reverse != nil && len(arcs) > 0 {
		t := transposedOf(g)
		rev, ok := m.recorded(t)
		if !ok {
			rev = graph.ReversedArcs(arcs)
		}
		stats.Add(m.Reverse.RunPushArcs(t, rev))
	}
	m.noteVersion(g)
	m.LastMaintain = time.Since(start)
	m.TotalStats.Add(stats)
	return stats
}

// recorded returns g's own insertion record when the state sits on the
// version just before g's.
func (m *Manager) recorded(g engine.ArcView) ([]graph.Edge, bool) {
	if d, ok := g.(engine.ArcDelta); ok && m.versioned && m.LastVersion+1 == d.Version() {
		return d.InsertedArcs()
	}
	return nil, false
}

// outArcs lists every out-arc of the changed sources, sorted by source, at
// the weights g holds (InsertEdges is first-wins, so never the batch's own
// weights).
func outArcs(g engine.ArcView, changed []graph.VertexID) []graph.Edge {
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
// graph q⁻¹(r) is the same push from the roots over g's transposed view.
func (m *Manager) Rebuild(g engine.ArcView) engine.Stats {
	start := time.Now()
	m.noteVersion(g)
	m.Forward = m.rootedState(g)
	seeds, masks := engine.SourceSeeds(m.Roots)
	stats := m.Forward.RunPush(g, seeds, masks)
	if m.directed {
		m.Reverse = m.rootedState(g)
		stats.Add(m.Reverse.RunPush(transposedOf(g), seeds, masks))
	}
	m.LastMaintain = time.Since(start)
	m.TotalStats.Add(stats)
	return stats
}

// transposedOf returns g with every arc reversed: the view's own transpose
// when it keeps one, else a copy built on the spot (a static *graph.CSR).
func transposedOf(g engine.ArcView) engine.ArcView {
	if t, ok := g.(engine.Transposer); ok {
		return t.Transposed()
	}
	return streamgraph.TransposeFrom(g)
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

// Meet returns the lanes a Δ-initialization for user source u meets over
// (triangle.DeltaInitMeet), in dst's storage, and Eq. 15's pick — Select's
// slot and property(u, r_slot) — which results report. The lanes are the
// roots keep leaves in, best property(u, r) first. Meet costs at most K²
// scalar ⊕ and allocates nothing when dst holds K lanes.
func (m *Manager) Meet(dst []triangle.Lane, u graph.VertexID) (lanes []triangle.Lane, slot int, propUR uint64) {
	var buf [64]uint64
	var kept [64]uint8
	prop := m.PropURInto(buf[:0], u)
	n, best := m.keep(prop, &kept)
	lanes = dst[:0]
	for _, r := range kept[:n] {
		_, _, off := m.Forward.StrideView(int(r))
		lanes = append(lanes, triangle.Lane{Off: off, PropUR: prop[r]})
	}
	return lanes, best, prop[best]
}

// keep writes into kept the slots whose roots a meet for a source with
// properties prop (prop[k] = property(u, r_k)) needs, and returns their
// number and the best slot. Roots are taken best property(u, r) first,
// ties in slot order, so the best comes first. A root r′ is left out when
// property(u, r′) is the init value (its Δ term is init everywhere), or
// when a kept root r dominates it: Combine(property(u,r), property(r,r′))
// is at least as good as property(u,r′). By the triangle inequality over
// r's exact column, r′'s term is then nowhere better than r's, so the meet
// over the kept roots equals the meet over all K bit for bit. On min/max
// problems one root is usually all that is kept.
func (m *Manager) keep(prop []uint64, kept *[64]uint8) (n, best int) {
	var order [64]uint8
	p := m.Problem
	byProp := order[:len(prop)]
	for k := range byProp {
		byProp[k] = uint8(k)
		for i := k; i > 0 && p.Better(prop[byProp[i]], prop[byProp[i-1]]); i-- {
			byProp[i], byProp[i-1] = byProp[i-1], byProp[i]
		}
	}
	init := p.InitValue()
	for _, r2 := range byProp {
		if prop[r2] == init {
			continue
		}
		dominated := false
		for _, r := range kept[:n] {
			if !p.Better(prop[r2], p.Combine(prop[r], m.Forward.Value(m.Roots[r2], int(r)))) {
				dominated = true
				break
			}
		}
		if !dominated {
			kept[n], n = r2, n+1
		}
	}
	return n, int(byProp[0])
}

// Narrow shrinks the set to the roots its meet uses: the union, over the
// sources of sample, of the roots keep leaves in for each, in their
// original slot order. Forward and Reverse are replaced by states of that
// width holding the kept columns, which are exact fixpoints of the version
// the set stands on, so nothing is re-evaluated; a width-1 set lands on
// the contiguous K=1 layout. A dropped root's term could still be the
// unique best for a source outside the sample, which then Δ-initializes
// from a weaker (still sound) bound and converges further. Subscribed lanes
// are separate states and stay as they are. An empty sample, or one no
// root reaches, leaves the set as it is. Only re-rooting — new Roots, then
// Rebuild — widens a set again. sample must hold vertices of the graph the
// set stands on.
func (m *Manager) Narrow(sample []graph.VertexID) {
	var used uint64
	var buf [64]uint64
	var kept [64]uint8
	for _, u := range sample {
		n, _ := m.keep(m.PropURInto(buf[:0], u), &kept)
		for _, r := range kept[:n] {
			used |= 1 << r
		}
	}
	if used == 0 || bits.OnesCount64(used) == len(m.Roots) {
		return
	}
	roots := make([]graph.VertexID, 0, bits.OnesCount64(used))
	for mk := used; mk != 0; mk &= mk - 1 {
		roots = append(roots, m.Roots[bits.TrailingZeros64(mk)])
	}
	m.Roots = roots
	m.Forward = narrowed(m.Forward, used)
	if m.Reverse != nil {
		m.Reverse = narrowed(m.Reverse, used)
	}
}

// narrowed returns a state holding st's slots in used, in slot order.
func narrowed(st *engine.State, used uint64) *engine.State {
	out := engine.NewState(st.P, st.N, bits.OnesCount64(used))
	for j, mk := 0, used; mk != 0; j, mk = j+1, mk&(mk-1) {
		out.CopySlot(j, st, bits.TrailingZeros64(mk))
	}
	return out
}

// MeetSample returns the sources a set is narrowed on (Narrow): 64
// vertices of out-degree > 2 in g (all of them when fewer), drawn by a
// shuffle with a fixed seed. It depends on g's degrees alone, so every
// view of the same graph — a mirror, a CSR — yields the same sample.
func MeetSample(g Degrees) []graph.VertexID {
	var cand []graph.VertexID
	for v := range g.NumVertices() {
		if g.Degree(graph.VertexID(v)) > 2 {
			cand = append(cand, graph.VertexID(v))
		}
	}
	rng := xrand.New(0x5eed5a3b1e)
	n := min(64, len(cand))
	for i := range n {
		j := i + rng.Intn(len(cand)-i)
		cand[i], cand[j] = cand[j], cand[i]
	}
	return append([]graph.VertexID(nil), cand[:n]...)
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
// (Meet, triangle.DeltaInitMeet).
func (m *Manager) StandingColumn(k int) []uint64 {
	if col, ok := m.Forward.ColumnView(k); ok {
		return col
	}
	return m.Forward.Column(k)
}
