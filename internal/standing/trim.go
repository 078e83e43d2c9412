package standing

import (
	"math/bits"
	"time"

	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/parallel"
)

// Trimmed deletion recovery — the KickStarter-flavored alternative to
// Rebuild. Deleting edges can only make values worse, and a converged
// value is stale only if its *derivation* used a deleted arc. The
// recovery approximates the dependency tracking of KickStarter with a
// value-witness test that needs no extra per-edge state:
//
//   - seed taint: for each deleted arc (a, b, w) and slot k, vertex b is
//     tainted in slot k iff Relax(val_k(a), w) == val_k(b) — the deleted
//     arc was a witness of b's value;
//   - propagate taint: from a tainted (x, k) along surviving out-arcs
//     (x, y, w), y becomes tainted in slot k iff
//     Relax(val_k(x), w) == val_k(y) — x was a witness of y.
//
// Every truly dependent value is caught (its witness chain consists of
// witnesses, each of which gets tainted in order), so the test is sound;
// value plateaus can over-taint, which only costs work. Untainted values
// are still exact: they have an untainted witness chain from their
// source, and deletions never improve anything.
//
// After tainting, tainted values reset to init (roots to the source
// value) and the push resumes from the region's boundary: every untainted
// tail of an arc into a tainted vertex, under the slots tainted there. The
// boundary holds exact values, so the push carries them into the region
// and converges over it alone.
//
// The reversed standing state (directed graphs) is the forward state of
// the transposed graph, so it is recovered by the same routine over the
// transposed view with the deleted arcs reversed: taint spreads over
// in-arcs, and the boundary is found over out-arcs.

// UpdateDeletions re-stabilizes the standing queries after edge
// deletions. It must be called with the post-deletion snapshot while the
// manager still holds the pre-deletion converged values (i.e. call it
// immediately after Graph.DeleteEdges). deleted lists the logical edges
// removed; undirected adds the mirror arcs to the taint seeds. A deletion
// that removed nothing still published a version: StampVersion records
// that the state stands on it (calling this with no edges does the same,
// at the price of a view).
func (m *Manager) UpdateDeletions(g engine.ArcView, deleted []graph.Edge, undirected bool) engine.Stats {
	start := time.Now()
	m.noteVersion(g)
	// The boundary search walks in-arcs, which an undirected graph stores
	// as its out-arcs. It goes by orientation, not by Reverse: a
	// forward-only manager over a directed graph needs the transpose too.
	in := g
	if m.directed {
		in = transposedOf(g)
	}
	stats := m.trim(m.Forward, m.Roots, g, in, deleted, undirected)
	for _, pg := range m.pages {
		m.trim(pg.st, pg.sources[:pg.st.K], g, in, deleted, undirected)
	}
	if m.Reverse != nil {
		stats.Add(m.trimReverse(g, deleted, undirected))
	}
	m.LastMaintain = time.Since(start)
	m.TotalStats.Add(stats)
	return stats
}

// trimReverse recovers the reversed state: trim over g's transposed view,
// whose in-arcs are g's out-arcs, with the deleted arcs reversed.
func (m *Manager) trimReverse(g engine.ArcView, deleted []graph.Edge, undirected bool) engine.Stats {
	return m.trim(m.Reverse, m.Roots, transposedOf(g), g, graph.ReversedArcs(deleted), undirected)
}

// trim recovers st, converged on the graph before deleted were removed, on
// g; in is g's transposed view and sources[k] is slot k's source.
func (m *Manager) trim(st *engine.State, sources []graph.VertexID, g, in engine.ArcView, deleted []graph.Edge, undirected bool) engine.Stats {
	st.Grow(g.NumVertices())
	taint := m.taint(st, g, deleted, undirected)
	if taint == nil {
		return engine.Stats{}
	}
	if st.Changed != nil {
		// A tainted value is reset and recomputed; it may come back the
		// same, so what st records is a superset of what moved.
		for v, mask := range taint {
			st.Changed[v] |= mask
		}
	}
	return m.repair(st, sources, g, in, taint)
}

// taint computes the per-slot taint masks over the pre-deletion values.
// Returns nil when no deleted arc was a witness.
func (m *Manager) taint(st *engine.State, g engine.ArcView, deleted []graph.Edge, undirected bool) []uint64 {
	p := m.Problem
	n := st.N
	K := st.K
	init := p.InitValue()
	taint := make([]uint64, n)
	var frontier []graph.VertexID

	seed := func(a, b graph.VertexID, w graph.Weight) {
		if int(a) >= n || int(b) >= n {
			return
		}
		var mask uint64
		for k := 0; k < K; k++ {
			va := st.Value(a, k)
			if va == init {
				continue
			}
			cand, ok := p.Relax(va, w)
			if ok && cand == st.Value(b, k) {
				mask |= 1 << uint(k)
			}
		}
		if mask != 0 && taint[b]|mask != taint[b] {
			taint[b] |= mask
			frontier = append(frontier, b)
		}
	}
	for _, e := range deleted {
		seed(e.Src, e.Dst, e.W)
		if undirected {
			seed(e.Dst, e.Src, e.W)
		}
	}
	if len(frontier) == 0 {
		return nil
	}

	// Propagate witnesses over the surviving arcs. Sequential worklist —
	// taint sets are usually tiny relative to the graph; the repair push
	// afterwards is the parallel part. A vertex re-enters the worklist
	// only when it gains new taint bits, so the loop terminates after at
	// most n*K bit additions.
	for len(frontier) > 0 {
		x := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		mask := taint[x]
		dsts, ws := g.OutSpan(x)
		for i, y := range dsts {
			var add uint64
			for mk := mask; mk != 0; mk &= mk - 1 {
				k := bits.TrailingZeros64(mk)
				vx := st.Value(x, k)
				if vx == init {
					continue
				}
				cand, ok := p.Relax(vx, ws[i])
				if ok && cand == st.Value(y, k) && taint[y]&(1<<uint(k)) == 0 {
					add |= 1 << uint(k)
				}
			}
			if add != 0 {
				taint[y] |= add
				frontier = append(frontier, y)
			}
		}
	}
	return taint
}

// repair resets the tainted value slots and resumes the push over g from
// the boundary of the tainted region — found through in, g's transposed
// view — plus each tainted slot's own source. A free lane holds init, so
// it is never tainted and its stale source entry is never read.
func (m *Manager) repair(st *engine.State, sources []graph.VertexID, g, in engine.ArcView, taint []uint64) engine.Stats {
	init := m.Problem.InitValue()
	n := st.N
	parallel.ForGrain(n, 256, func(v int) {
		for mk := taint[v]; mk != 0; mk &= mk - 1 {
			st.SetValue(graph.VertexID(v), bits.TrailingZeros64(mk), init)
		}
	})
	// boundary[x] collects the slots in which x has an arc into a vertex
	// tainted there while x itself is not.
	boundary := make([]uint64, n)
	for y, mask := range taint {
		if mask == 0 {
			continue
		}
		tails, _ := in.OutSpan(graph.VertexID(y))
		for _, x := range tails {
			boundary[x] |= mask &^ taint[x]
		}
	}
	for k, r := range sources {
		if int(r) < n && taint[r]&(1<<uint(k)) != 0 {
			st.SetSource(r, k)
			boundary[r] |= 1 << uint(k)
		}
	}
	var seeds []graph.VertexID
	var masks []uint64
	for v, mask := range boundary {
		if mask != 0 {
			seeds = append(seeds, graph.VertexID(v))
			masks = append(masks, mask)
		}
	}
	return st.RunPush(g, seeds, masks)
}
