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
// value is stale only if every derivation it had used a deleted arc. The
// recovery approximates KickStarter's dependency tracking with value-
// witness tests that need no per-edge state, in five steps per state:
//
//  1. Taint: for each deleted arc (a, b, w) and slot k, b is tainted in k
//     iff Relax(val_k(a), w) == val_k(b) — the arc was a witness of b's
//     value — and from a tainted (x, k) taint spreads along surviving
//     out-arcs (x, y, w) under the same test. Every untainted value is
//     exact after the deletion: a converged value has a witness chain from
//     its source (the tree a Dijkstra-order evaluation would build), and
//     an untainted value's witnesses are all surviving and untainted.
//  2. Settle (lanes only): a candidate (y, k) of the taint is settled, not
//     tainted, when y is the lane's source or when the meet of the lane's
//     source over the roots (Meet), which are recovered first, equals
//     val_k(y). The meet is the value of a real path of the new graph and
//     the old value is no worse than the truth, so a settled value is
//     exact; whatever it witnesses keeps an exact witness, and the taint
//     neither marks it nor spreads from it. Step 1's argument still holds:
//     a chain of untainted witnesses now ends at the source or at a
//     settled value, both exact.
//  3. Support: once the closure is complete every untainted value is
//     exact, so a tainted (y, k) is exact too when y is slot k's source or
//     when a surviving in-arc (x, y, w) has (x, k) untainted or already
//     cleared and Relax(val_k(x), w) == val_k(y). Such a value is cleared
//     from the taint, and clearing spreads along out-arcs under the same
//     test. The cleared set only ever gains exact values, so the order
//     does not matter.
//  4. Reset: what is left — the residue, the values that lost every exact
//     derivation — resets: a root's to init, a lane's to the meet.
//  5. Push: the evaluation resumes from the residue's boundary, every
//     exact tail of an arc into a residue value, under the slots reset
//     at the head. The boundary holds exact values, so the push carries
//     them into the residue and converges over it alone.
//
// The reset values are sound starting points. Init is no better than any
// value; the meet is the paper's Δ-init bound (§4, Theorem 4.4) over the
// roots' post-deletion columns, whose every term property(u,r) ⊕
// property(r,x) is the value of a real path u→r→x of the new graph. A
// meet of fixpoint columns holds on every arc, so an arc between two
// reset values is never violated; an arc from an exact value into the
// residue is seeded, and one out of the residue cannot improve an exact
// head. The push therefore converges to the exact answer and moves only
// values of the residue. A page records a residue value as moved only
// when it came back different, so after a deletion the record is exactly
// what moved, as after an insertion.
//
// The reset must use the same terms at both ends of an arc. A cross-root
// bound over the untainted terms alone (a root's value from the other
// roots) is a real path's value too, but two reset values with different
// term sets can leave the arc between them violated with neither end on
// the boundary, and the push would never reach it.
//
// The reversed standing state (directed graphs) is the forward state of
// the transposed graph, so it is recovered by the same routine over the
// transposed view with the deleted arcs reversed: taint and support spread
// over in-arcs, and the support test and the boundary read out-arcs.

// UpdateDeletions re-stabilizes the standing queries after edge
// deletions. It must be called with the post-deletion snapshot while the
// manager still holds the pre-deletion converged values (i.e. call it
// immediately after Graph.DeleteEdges). deleted lists the logical edges
// removed; undirected adds the mirror arcs to the taint seeds. A deletion
// that removed nothing still published a version: StampVersion records
// that the state stands on it (calling this with no edges does the same,
// at the price of a view).
//
// The order is Forward, Reverse, then every page of lanes: a lane's settle
// test and reset read Meet, which reads both root states.
func (m *Manager) UpdateDeletions(g engine.ArcView, deleted []graph.Edge, undirected bool) engine.Stats {
	start := time.Now()
	m.noteVersion(g)
	// The support test and the boundary walk in-arcs, which an undirected
	// graph stores as its out-arcs. It goes by orientation, not by
	// Reverse: a forward-only manager over a directed graph needs the
	// transpose too.
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
	m.noteMaintain(start, stats)
	return stats
}

// trimReverse recovers the reversed state: trim over g's transposed view,
// whose in-arcs are g's out-arcs, with the deleted arcs reversed.
func (m *Manager) trimReverse(g engine.ArcView, deleted []graph.Edge, undirected bool) engine.Stats {
	return m.trim(m.Reverse, m.Roots, transposedOf(g), g, graph.ReversedArcs(deleted), undirected)
}

// trim recovers st, converged on the graph before deleted were removed, on
// g; in is g's transposed view and sources[k] is slot k's source. The
// residue resets to init.
func (m *Manager) trim(st *engine.State, sources []graph.VertexID, g, in engine.ArcView, deleted []graph.Edge, undirected bool) engine.Stats {
	st.Grow(g.NumVertices())
	taint := m.taint(st, g, deleted, undirected, nil)
	if taint == nil {
		return engine.Stats{}
	}
	return m.repairRoots(st, g, in, taint, m.support(st, sources, g, in, taint))
}

// repairRoots is trim past the support: reset the residue to init and
// push.
func (m *Manager) repairRoots(st *engine.State, g, in engine.ArcView, taint []uint64, residue []graph.VertexID) engine.Stats {
	init := m.Problem.InitValue()
	parallel.ForGrain(len(residue), 256, func(i int) {
		v := residue[i]
		for mk := taint[v]; mk != 0; mk &= mk - 1 {
			st.SetValue(v, bits.TrailingZeros64(mk), init)
		}
	})
	return m.repair(st, g, in, taint, residue)
}

// trimLanes recovers a page of lanes like trim, but settles the taint on
// the meet of each lane's source over the roots, which must already stand
// on g, resets the residue to that meet, and records in the page's
// Changed only the values that came back different — beside the bits
// earlier passes set that no drain has taken yet.
func (m *Manager) trimLanes(pg *page, g, in engine.ArcView, deleted []graph.Edge, undirected bool) {
	pg.st.Grow(g.NumVertices())
	meets := m.laneMeets(pg)
	if taint := m.taint(pg.st, g, deleted, undirected, m.settler(pg, meets)); taint != nil {
		m.repairLanes(pg, g, in, taint, m.support(pg.st, pg.sources[:pg.st.K], g, in, taint), meets)
	}
}

// laneMeets returns, for every live lane k of pg, the roots the meet of
// its source keeps (Meet).
func (m *Manager) laneMeets(pg *page) [][]triangle.Lane {
	meets := make([][]triangle.Lane, pg.st.K)
	for mk := pg.live; mk != 0; mk &= mk - 1 {
		k := bits.TrailingZeros64(mk)
		meets[k], _, _ = m.Meet(make([]triangle.Lane, 0, m.K()), pg.sources[k])
	}
	return meets
}

// settler returns the settle test of pg's taint (step 2 above): the bits
// k of cand where y is lane k's source or the meet equals the value. A
// free lane holds init, so it is never a candidate and its stale source is
// never read.
func (m *Manager) settler(pg *page, meets [][]triangle.Lane) func(y graph.VertexID, cand uint64) uint64 {
	meet := triangle.MeetOf(m.Problem)
	arr, stride, offs := pg.st.StrideViews()
	cols, cstride, _ := m.Forward.StrideView(0)
	var one [1]uint64
	return func(y graph.VertexID, cand uint64) (settled uint64) {
		for ; cand != 0; cand &= cand - 1 {
			k := bits.TrailingZeros64(cand)
			if y == pg.sources[k] {
				settled |= 1 << uint(k)
			} else if len(meets[k]) > 0 {
				meet(one[:], 0, 0, cols, int(y)*cstride, 0, meets[k], 1)
				if one[0] == arr[int(y)*stride+offs[k]] {
					settled |= 1 << uint(k)
				}
			}
		}
		return settled
	}
}

// repairLanes is trimLanes past the support: reset the residue to the
// meet, push and record.
func (m *Manager) repairLanes(pg *page, g, in engine.ArcView, taint []uint64, residue []graph.VertexID, meets [][]triangle.Lane) {
	st := pg.st
	meet, init := triangle.MeetOf(m.Problem), m.Problem.InitValue()
	arr, stride, offs := st.StrideViews()
	cols, cstride, _ := m.Forward.StrideView(0)
	// old[at[i]:at[i+1]] holds residue[i]'s values in its reset slots,
	// lowest slot first, and prior[i] the bits of those slots an undrained
	// pass recorded. A page with a residue holds live lanes, so it records
	// (Install).
	at := make([]int, len(residue)+1)
	for i, v := range residue {
		at[i+1] = at[i] + bits.OnesCount64(taint[v])
	}
	old, prior := make([]uint64, at[len(residue)]), make([]uint64, len(residue))
	parallel.ForRange(len(residue), 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x, j := int(residue[i]), at[i]
			prior[i] = st.Changed[x] & taint[x]
			for mk := taint[x]; mk != 0; mk, j = mk&(mk-1), j+1 {
				k := bits.TrailingZeros64(mk)
				d := x*stride + offs[k]
				old[j] = arr[d]
				if len(meets[k]) == 0 {
					arr[d] = init
				} else {
					meet(arr, d, 0, cols, x*cstride, 0, meets[k], 1)
				}
			}
		}
	})
	m.repair(st, g, in, taint, residue)
	// Only residue values can move: every other one is exact already.
	parallel.ForRange(len(residue), 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x, j := int(residue[i]), at[i]
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
// Returns nil when no deleted arc was a witness. settle, when not nil,
// returns the bits of cand whose values at y are exact (step 2 above); it
// is asked once per candidate bit, and a settled bit is neither tainted
// nor propagated.
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
func (m *Manager) taint(st *engine.State, g engine.ArcView, deleted []graph.Edge, undirected bool, settle func(y graph.VertexID, cand uint64) uint64) []uint64 {
	p := m.Problem
	n := st.N
	K := st.K
	init := p.InitValue()
	arr, stride, offs := st.StrideViews()
	taint := make([]uint64, n)
	fresh := make([]uint64, n)
	// known[y] holds the bits of y already decided: tainted, or settled.
	known := taint
	if settle != nil {
		known = make([]uint64, n)
	}
	var frontier []graph.VertexID
	gain := func(y graph.VertexID, add uint64) {
		if settle != nil {
			known[y] |= add
			if add &^= settle(y, add); add == 0 {
				return
			}
		}
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
		if mask &^= known[b]; mask != 0 {
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
			test := mask &^ known[y]
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

// support clears from taint every value that keeps an exact derivation
// (step 3 above) and returns the vertices still tainted, the residue, in
// vertex order; taint then holds the residue's masks. in is g's
// transposed view and sources[k] is slot k's source.
//
// One parallel pass over the in-arcs of the tainted vertices finds the
// values an untainted tail supports; a sequential worklist then spreads
// the clearing along out-arcs, each cleared bit testing each out-arc
// once. The residue is usually a small part of the taint, so the boundary
// walk (repair) then scans few in-arcs.
func (m *Manager) support(st *engine.State, sources []graph.VertexID, g, in engine.ArcView, taint []uint64) []graph.VertexID {
	p := m.Problem
	init := p.InitValue()
	arr, stride, offs := st.StrideViews()
	var verts []graph.VertexID
	for v, mask := range taint {
		if mask != 0 {
			verts = append(verts, graph.VertexID(v))
		}
	}
	// cleared[y] holds the bits of y cleared and not yet propagated. The
	// first pass reads taint as the closure left it and writes only
	// cleared, so its vertices are independent.
	cleared := make([]uint64, len(taint))
	parallel.ForRange(len(verts), 64, func(lo, hi int) {
		for _, y := range verts[lo:hi] {
			mask, yb := taint[y], int(y)*stride
			var got uint64
			tails, ws := in.OutSpan(y)
			for j, x := range tails {
				xb := int(x) * stride
				for test := mask &^ got &^ taint[x]; test != 0; test &= test - 1 {
					k := bits.TrailingZeros64(test)
					vx := arr[xb+offs[k]]
					if vx == init {
						continue
					}
					if cand, ok := p.Relax(vx, ws[j]); ok && cand == arr[yb+offs[k]] {
						got |= 1 << uint(k)
					}
				}
				if got == mask {
					break
				}
			}
			cleared[y] = got
		}
	})
	for k, r := range sources {
		if int(r) < len(taint) {
			cleared[r] |= taint[r] & (1 << uint(k))
		}
	}
	var frontier []graph.VertexID
	for _, y := range verts {
		if cleared[y] != 0 {
			taint[y] &^= cleared[y]
			frontier = append(frontier, y)
		}
	}

	var vy [64]uint64
	for len(frontier) > 0 {
		y := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		yb := int(y) * stride
		var mask uint64
		for mk := cleared[y]; mk != 0; mk &= mk - 1 {
			k := bits.TrailingZeros64(mk)
			if vy[k] = arr[yb+offs[k]]; vy[k] != init {
				mask |= 1 << uint(k)
			}
		}
		cleared[y] = 0
		dsts, ws := g.OutSpan(y)
		for i, z := range dsts {
			test := mask & taint[z]
			if test == 0 {
				continue
			}
			zb := int(z) * stride
			var add uint64
			for ; test != 0; test &= test - 1 {
				k := bits.TrailingZeros64(test)
				if cand, ok := p.Relax(vy[k], ws[i]); ok && cand == arr[zb+offs[k]] {
					add |= 1 << uint(k)
				}
			}
			if add != 0 {
				taint[z] &^= add
				if cleared[z] == 0 {
					frontier = append(frontier, z)
				}
				cleared[z] |= add
			}
		}
	}

	residue := verts[:0]
	for _, y := range verts {
		if taint[y] != 0 {
			residue = append(residue, y)
		}
	}
	return residue
}

// repair resumes the push over g from the boundary of the residue — the
// vertices in residue, reset in the slots taint holds for them — found
// through in, g's transposed view. Every source was cleared by support,
// so the residue holds none.
func (m *Manager) repair(st *engine.State, g, in engine.ArcView, taint []uint64, residue []graph.VertexID) engine.Stats {
	if len(residue) == 0 {
		return engine.Stats{}
	}
	// boundary[x] collects the slots in which x has an arc into a vertex
	// reset there while x itself is not.
	boundary := make([]uint64, st.N)
	var seeds []graph.VertexID
	for _, y := range residue {
		tails, _ := in.OutSpan(y)
		for _, x := range tails {
			if add := taint[y] &^ taint[x] &^ boundary[x]; add != 0 {
				if boundary[x] == 0 {
					seeds = append(seeds, x)
				}
				boundary[x] |= add
			}
		}
	}
	masks := make([]uint64, len(seeds))
	for i, x := range seeds {
		masks[i] = boundary[x]
	}
	return st.RunPush(g, seeds, masks)
}
