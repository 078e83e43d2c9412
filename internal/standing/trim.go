package standing

import (
	"math/bits"
	"time"

	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/parallel"
	"tripoline/internal/triangle"
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
// After tainting, a root's tainted values reset to init (its source to
// the source value) and a lane's to the meet of its source over the roots
// (Meet), which are recovered first; then the push resumes from the
// region's boundary: every untainted tail of an arc into a tainted vertex,
// under the slots tainted there. The boundary holds exact values, so the
// push carries them into the region and converges over it alone.
//
// The meet is the paper's Δ-init bound (§4, Theorem 4.4) over the roots'
// post-deletion columns: each term property(u,r) ⊕ property(r,x) is the
// value of a real path u→r→x of the new graph, so it is never better than
// the truth, and a meet of fixpoint columns holds on every arc between
// two reset values. An arc from the boundary into the region is seeded,
// one out of the region cannot improve an exact head, and the lane's own
// source, when tainted, is set to the source value and seeded — so the
// same boundary push converges to the exact answer, and moves only the
// values the bound left above it. A page records a tainted value as moved
// only when it came back different, so after a deletion the record is
// exactly what moved, as after an insertion.
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
//
// The order is Forward, Reverse, then every page of lanes: a lane's reset
// reads Meet, which reads both root states.
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
	if m.Reverse != nil {
		stats.Add(m.trimReverse(g, deleted, undirected))
	}
	for _, pg := range m.pages {
		m.trimLanes(pg, g, in, deleted, undirected)
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
// g; in is g's transposed view and sources[k] is slot k's source. Tainted
// values reset to init.
func (m *Manager) trim(st *engine.State, sources []graph.VertexID, g, in engine.ArcView, deleted []graph.Edge, undirected bool) engine.Stats {
	st.Grow(g.NumVertices())
	taint := m.taint(st, g, deleted, undirected)
	if taint == nil {
		return engine.Stats{}
	}
	init := m.Problem.InitValue()
	parallel.ForGrain(st.N, 256, func(v int) {
		for mk := taint[v]; mk != 0; mk &= mk - 1 {
			st.SetValue(graph.VertexID(v), bits.TrailingZeros64(mk), init)
		}
	})
	return m.repair(st, sources, g, in, taint)
}

// trimLanes recovers a page of lanes like trim, but resets each tainted
// value to the meet of its lane's source over the roots, which must
// already stand on g, and records in the page's Changed only the values
// that came back different — beside the bits earlier passes set that no
// drain has taken yet.
func (m *Manager) trimLanes(pg *page, g, in engine.ArcView, deleted []graph.Edge, undirected bool) {
	pg.st.Grow(g.NumVertices())
	if taint := m.taint(pg.st, g, deleted, undirected); taint != nil {
		m.repairLanes(pg, g, in, taint)
	}
}

// repairLanes is trimLanes past the taint.
func (m *Manager) repairLanes(pg *page, g, in engine.ArcView, taint []uint64) {
	st := pg.st
	// verts lists the tainted vertices; old[at[i]:at[i+1]] holds verts[i]'s
	// values in its tainted slots, lowest slot first, and prior[i] the bits
	// of those slots an undrained pass recorded. A page with tainted values
	// holds live lanes, so it records (Install).
	var verts []graph.VertexID
	at := []int{0}
	var slots uint64
	for v, mask := range taint {
		if mask != 0 {
			verts = append(verts, graph.VertexID(v))
			at = append(at, at[len(at)-1]+bits.OnesCount64(mask))
			slots |= mask
		}
	}
	var lanes [64][]triangle.Lane
	for mk := slots; mk != 0; mk &= mk - 1 {
		k := bits.TrailingZeros64(mk)
		lanes[k], _, _ = m.Meet(make([]triangle.Lane, 0, m.K()), pg.sources[k])
	}
	meet, init := triangle.MeetOf(m.Problem), m.Problem.InitValue()
	arr, stride, offs := st.StrideViews()
	cols, cstride, _ := m.Forward.StrideView(0)
	old, prior := make([]uint64, at[len(verts)]), make([]uint64, len(verts))
	parallel.ForRange(len(verts), 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x, j := int(verts[i]), at[i]
			prior[i] = st.Changed[x] & taint[x]
			for mk := taint[x]; mk != 0; mk, j = mk&(mk-1), j+1 {
				k := bits.TrailingZeros64(mk)
				d := x*stride + offs[k]
				old[j] = arr[d]
				if len(lanes[k]) == 0 {
					arr[d] = init
				} else {
					meet(arr, d, 0, cols, x*cstride, 0, lanes[k], 1)
				}
			}
		}
	})
	m.repair(st, pg.sources[:st.K], g, in, taint)
	// Only tainted values can move: every other one is exact already.
	parallel.ForRange(len(verts), 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x, j := int(verts[i]), at[i]
			moved := prior[i]
			for mk := taint[x]; mk != 0; mk, j = mk&(mk-1), j+1 {
				k := bits.TrailingZeros64(mk)
				if arr[x*stride+offs[k]] != old[j] {
					moved |= 1 << uint(k)
				}
			}
			st.Changed[x] = st.Changed[x]&^taint[x] | moved
		}
	})
}

// taint computes the per-slot taint masks over the pre-deletion values.
// Returns nil when no deleted arc was a witness.
//
// The worklist propagates only what a vertex newly gained: fresh[x] holds
// the bits x gained since its last pop, x is pushed when fresh[x] turns
// non-zero, and a pop takes and clears it, reads x's values for those bits
// once and tests each out-arc (x, y) only for the bits y lacks. Each bit
// of x is thus tested once per out-arc — at most K tests per arc in all —
// and since values do not move while tainting, the closure is the one a
// whole-mask re-test would reach. That matters on plateau problems (SSWP,
// SSNP, SSR, a saturated Viterbi), whose witness test taints about half
// the reached region in every slot, the slots arriving at x at different
// times: re-testing the whole mask would re-scan x's arcs on each arrival.
// The worklist stays sequential because the standing sets are maintained
// concurrently in the writer's window, which already fills the cores; the
// repair push afterwards is parallel.
func (m *Manager) taint(st *engine.State, g engine.ArcView, deleted []graph.Edge, undirected bool) []uint64 {
	p := m.Problem
	n := st.N
	K := st.K
	init := p.InitValue()
	arr, stride, offs := st.StrideViews()
	taint := make([]uint64, n)
	fresh := make([]uint64, n)
	var frontier []graph.VertexID
	gain := func(y graph.VertexID, add uint64) {
		taint[y] |= add
		if fresh[y] == 0 {
			frontier = append(frontier, y)
		}
		fresh[y] |= add
	}

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
		if mask != 0 {
			gain(b, mask)
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

	var vx [64]uint64
	for len(frontier) > 0 {
		x := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		xb := int(x) * stride
		var mask uint64
		for mk := fresh[x]; mk != 0; mk &= mk - 1 {
			k := bits.TrailingZeros64(mk)
			if vx[k] = arr[xb+offs[k]]; vx[k] != init {
				mask |= 1 << uint(k)
			}
		}
		fresh[x] = 0
		dsts, ws := g.OutSpan(x)
		for i, y := range dsts {
			test := mask &^ taint[y]
			if test == 0 {
				continue
			}
			yb := int(y) * stride
			var add uint64
			for ; test != 0; test &= test - 1 {
				k := bits.TrailingZeros64(test)
				cand, ok := p.Relax(vx[k], ws[i])
				if ok && cand == arr[yb+offs[k]] {
					add |= 1 << uint(k)
				}
			}
			if add != 0 {
				gain(y, add)
			}
		}
	}
	return taint
}

// repair resumes the push over g from the boundary of the tainted region
// — found through in, g's transposed view — plus each tainted slot's own
// source, once the tainted values are reset. A free lane holds init, so it
// is never tainted and its stale source entry is never read.
func (m *Manager) repair(st *engine.State, sources []graph.VertexID, g, in engine.ArcView, taint []uint64) engine.Stats {
	n := st.N
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
