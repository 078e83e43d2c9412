package standing

import (
	"math/bits"
	"sync/atomic"
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
// value) and the push evaluation resumes with every vertex seeded under
// the complement mask — one sweep pushes correct boundary values back
// into the tainted region, and iteration converges over that region
// only.
//
// The reversed standing state (directed graphs) is recovered the same
// way over out-arcs only. A reversed value val(z) = property(z, r)
// derives through one of z's out-arcs, so the seeds are the deleted arcs'
// sources and taint spreads from an arc's head to its tail; with no
// in-edge index, each propagation round is a filtered sweep — every
// vertex scans its out-arcs and tests only those whose head gained taint
// bits in the round before. The tainted slots are reset and the tainted
// vertices handed to the change-driven pull as its dirty set: untainted
// values are exact already, so nothing else can move.

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
	var stats engine.Stats

	m.noteVersion(g)
	m.Forward.Grow(g.NumVertices())
	stats.Add(m.repairForward(g, m.taintForward(g, deleted, undirected)))

	if m.Reverse != nil {
		m.Reverse.Grow(g.NumVertices())
		stats.Add(m.repairReverse(g, m.taintReverse(g, deleted, undirected)))
	}
	m.LastMaintain = time.Since(start)
	m.TotalStats.Add(stats)
	return stats
}

// taintForward computes the per-slot taint masks over the pre-deletion
// values. Returns nil when no deleted arc was a witness.
func (m *Manager) taintForward(g engine.ArcView, deleted []graph.Edge, undirected bool) []uint64 {
	st := m.Forward
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

// repairForward resets tainted value slots and resumes the evaluation
// with every vertex seeded under its untainted mask (plus tainted roots
// under their own slot).
func (m *Manager) repairForward(g engine.ArcView, taint []uint64) engine.Stats {
	if taint == nil {
		return engine.Stats{}
	}
	st := m.Forward
	p := m.Problem
	init := p.InitValue()
	n := st.N
	K := st.K
	fullMask := maskFor(K)
	parallel.ForGrain(n, 256, func(v int) {
		mask := taint[v]
		for mk := mask; mk != 0; mk &= mk - 1 {
			st.SetValue(graph.VertexID(v), bits.TrailingZeros64(mk), init)
		}
	})
	seeds := make([]graph.VertexID, 0, n)
	masks := make([]uint64, 0, n)
	for v := 0; v < n; v++ {
		if keep := fullMask &^ taint[v]; keep != 0 {
			seeds = append(seeds, graph.VertexID(v))
			masks = append(masks, keep)
		}
	}
	for k, r := range m.Roots {
		if int(r) < n && taint[r]&(1<<uint(k)) != 0 {
			st.SetSource(r, k)
			seeds = append(seeds, r)
			masks = append(masks, 1<<uint(k))
		}
	}
	return st.RunPush(g, seeds, masks)
}

// taintReverse computes per-slot taint masks for the reversed state.
// A reversed value val(z) = property(z, r) derives through one of z's
// out-arcs (z, y, w): the witness test is val(z) == Relax(val(y), w).
// Seeds are the deleted arcs' sources. Each propagation round sweeps all
// vertices in parallel; z tests an arc only at the slots its head gained
// in the previous round and writes only taint[z], so the rounds need no
// atomics and only the out-edge representation. Returns nil when no
// deleted arc was a witness.
func (m *Manager) taintReverse(g engine.ArcView, deleted []graph.Edge, undirected bool) []uint64 {
	st := m.Reverse
	p := m.Problem
	n := st.N
	K := st.K
	init := p.InitValue()
	taint := make([]uint64, n)

	// witness returns the slots of mask in which arc (z, y, w) derives
	// z's value from y's.
	witness := func(z, y graph.VertexID, w graph.Weight, mask uint64) uint64 {
		var hit uint64
		for mk := mask; mk != 0; mk &= mk - 1 {
			k := bits.TrailingZeros64(mk)
			vy := st.Value(y, k)
			if vy == init {
				continue
			}
			if cand, ok := p.Relax(vy, w); ok && cand == st.Value(z, k) {
				hit |= 1 << uint(k)
			}
		}
		return hit
	}

	seeded := false
	seed := func(a, b graph.VertexID, w graph.Weight) {
		if int(a) >= n || int(b) >= n {
			return
		}
		if hit := witness(a, b, w, maskFor(K)); hit != 0 {
			taint[a] |= hit
			seeded = true
		}
	}
	for _, e := range deleted {
		seed(e.Src, e.Dst, e.W)
		if undirected {
			seed(e.Dst, e.Src, e.W)
		}
	}
	if !seeded {
		return nil
	}

	// gained[y] is the mask of taint bits y gained in the previous round
	// (the seeds, at first); next receives this round's.
	gained := append([]uint64(nil), taint...)
	next := make([]uint64, n)
	for more := true; more; gained, next = next, gained {
		var any atomic.Bool
		parallel.ForRange(n, 256, func(start, end int) {
			var seen uint64
			for v := start; v < end; v++ {
				z, have := graph.VertexID(v), taint[v]
				var add uint64
				dsts, ws := g.OutSpan(z)
				for i, y := range dsts {
					if mk := gained[y] &^ (have | add); mk != 0 {
						add |= witness(z, y, ws[i], mk)
					}
				}
				taint[v] = have | add
				next[v] = add
				seen |= add
			}
			if seen != 0 {
				any.Store(true)
			}
		})
		more = any.Load()
	}
	return taint
}

// repairReverse resets tainted reversed value slots and re-stabilizes
// with the tainted vertices as the pull's dirty set: round 0 re-derives
// them from their (exact) untainted out-neighbors, and the filtered
// sweeps carry the recovered values up the tainted region.
func (m *Manager) repairReverse(g engine.ArcView, taint []uint64) engine.Stats {
	st := m.Reverse
	init := m.Problem.InitValue()
	var dirty []graph.VertexID
	for v, mask := range taint {
		if mask == 0 {
			continue
		}
		dirty = append(dirty, graph.VertexID(v))
		for mk := mask; mk != 0; mk &= mk - 1 {
			st.SetValue(graph.VertexID(v), bits.TrailingZeros64(mk), init)
		}
	}
	for k, r := range m.Roots {
		if int(r) < len(taint) && taint[r]&(1<<uint(k)) != 0 {
			st.SetSource(r, k)
		}
	}
	var stats engine.Stats
	st.RunPull(g, dirty, &stats)
	return stats
}

func maskFor(k int) uint64 {
	if k == 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(k) - 1
}
