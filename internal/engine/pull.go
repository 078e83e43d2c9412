// Pull kernel: change-driven, owner-exclusive register accumulation.
//
// In the pull model a vertex recomputes its value block from its
// out-neighbors' blocks, so property(x, source) is evaluated over the
// out-edge representation alone (§4.2, no transposed mirror). The kernel
// re-evaluates only what can have changed:
//
//   - Round 0 produces the first hot set — per vertex, the mask of slots it
//     improved — from one of two descriptions of what changed. Arcs (an
//     insertion: the arcs the batch stored) are relaxed head→tail, each
//     tail over its listed arcs only, at all K slots. Dirty vertices (a
//     deletion repair reset their slots, or every vertex when evaluating
//     from scratch) are re-evaluated over all their out-arcs at all K
//     slots.
//   - Every later round is a filtered sweep: for each vertex v and out-arc
//     (v, d, w) it loads d's improved-slot mask from the previous round,
//     skips the arc when the mask is zero (one load instead of K
//     relaxations), and otherwise relaxes only the slots in the mask.
//     Rounds repeat until one improves nothing.
//
// Why it is exact. The caller hands in a state that is a fixpoint of the
// graph except for the listed arcs, or except at the dirty vertices. An
// arc (v, d, w) that is not listed and whose head did not move still
// satisfies value(v) ⪯ Relax(value(d), w), so a vertex can improve only
// through a listed arc, by being dirty, or through an out-neighbor that
// improved — which is what round 0 and the sweeps examine. Neighbor values
// are read with atomic loads: an improvement published earlier in the same
// round is either seen now or offered again next round through its mask.
// The problems are monotonic and the fixpoint unique (Theorem 4.4), so the
// result is the one an every-vertex-every-round pull converges to, bit for
// bit.
//
// Each vertex writes only its own value block and its own mask word — no
// other worker ever writes them; the arc round keeps that by handing all
// the listed arcs of one tail to one worker (forArcRuns). The kernel
// exploits the exclusivity: it hoists the slots it is about to relax into a
// register block, accumulates improvements there across the whole edge
// loop, and publishes each improved slot with a single atomic store at the
// end. The exclusivity holds within one evaluation only: unlike
// RunPushCtx, concurrent pull calls must not share a state.
package engine

import (
	"context"
	"math/bits"
	"sync/atomic"

	"tripoline/internal/graph"
	"tripoline/internal/parallel"
)

// pullCtx parameterizes the pull kernel over the graph and the state's
// storage: value (v,k) lives at vals[v*vw+soff[k]] — State.StrideViews'
// (arr, stride, offs).
type pullCtx struct {
	g       ArcView
	p       Problem
	spec    KernelSpec
	hasSpec bool
	full    uint64 // the all-K-slots mask
	vals    []uint64
	vw      int
	soff    []int
	// hot[d] is the mask of slots d improved in the previous round; nil in
	// round 0, which relaxes what it is handed at all slots.
	// improved[v] receives the mask of slots v improves in this round.
	hot, improved []uint64
}

// pullWorker is one worker's register block, counters and per-vertex
// accumulators, indexed by the stable worker id so none of it is
// reallocated per chunk or per vertex.
type pullWorker struct {
	cur  [64]uint64
	c    workCounter
	pc   *pullCtx
	base int // the current vertex's block offset, v*vw
	// have is the mask of slots hoisted into cur for the current vertex,
	// improved the mask of slots some arc improved.
	have, improved uint64
}

// edge relaxes one out-arc (weight w, neighbor block at dbase) against
// the register block cur at the slots in mask, improving cur in place.
// Returns the mask of slots improved by this arc; c.relax counts one
// attempt per non-gated neighbor slot.
func (pc *pullCtx) edge(c *workCounter, dbase int, w graph.Weight, cur *[64]uint64, mask uint64) uint64 {
	vals, soff := pc.vals, pc.soff
	var improved uint64
	if !pc.hasSpec {
		p := pc.p
		for m := mask; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			nv := atomic.LoadUint64(&vals[dbase+soff[k]])
			cand, ok := p.Relax(nv, w)
			if !ok {
				continue
			}
			c.relax++
			if p.Better(cand, cur[k]) {
				cur[k] = cand
				improved |= 1 << uint(k)
			}
		}
		return improved
	}
	gate := pc.spec.Gate
	switch pc.spec.Kind {
	case RelaxAddWeight:
		wv := uint64(w)
		for m := mask; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			nv := atomic.LoadUint64(&vals[dbase+soff[k]])
			if nv == gate {
				continue
			}
			c.relax++
			if cand := nv + wv; cand < cur[k] {
				cur[k] = cand
				improved |= 1 << uint(k)
			}
		}
	case RelaxAddOne:
		for m := mask; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			nv := atomic.LoadUint64(&vals[dbase+soff[k]])
			if nv == gate {
				continue
			}
			c.relax++
			if cand := nv + 1; cand < cur[k] {
				cur[k] = cand
				improved |= 1 << uint(k)
			}
		}
	case RelaxMinWeight:
		wv := uint64(w)
		for m := mask; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			nv := atomic.LoadUint64(&vals[dbase+soff[k]])
			if nv == gate {
				continue
			}
			cand := nv
			if wv < cand {
				cand = wv
			}
			c.relax++
			if cand > cur[k] {
				cur[k] = cand
				improved |= 1 << uint(k)
			}
		}
	case RelaxMaxWeight:
		wv := uint64(w)
		for m := mask; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			nv := atomic.LoadUint64(&vals[dbase+soff[k]])
			if nv == gate {
				continue
			}
			cand := nv
			if wv > cand {
				cand = wv
			}
			c.relax++
			if cand < cur[k] {
				cur[k] = cand
				improved |= 1 << uint(k)
			}
		}
	case RelaxMulSat:
		wv := uint64(w)
		for m := mask; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			nv := atomic.LoadUint64(&vals[dbase+soff[k]])
			if nv == gate {
				continue
			}
			cand := satMulFused(nv, wv)
			c.relax++
			if cand < cur[k] {
				cur[k] = cand
				improved |= 1 << uint(k)
			}
		}
	case RelaxConst:
		cand := pc.spec.Const
		for m := mask; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			nv := atomic.LoadUint64(&vals[dbase+soff[k]])
			if nv == gate {
				continue
			}
			c.relax++
			if pc.spec.MaxWins {
				if cand > cur[k] {
					cur[k] = cand
					improved |= 1 << uint(k)
				}
			} else if cand < cur[k] {
				cur[k] = cand
				improved |= 1 << uint(k)
			}
		}
	}
	return improved
}

// relax relaxes out-arc (·, d, w) of the current vertex at the slots in m
// (non-zero). Slots are hoisted on first use, so a vertex with no hot
// out-neighbor reads one mask word per arc and nothing else.
func (pw *pullWorker) relax(d graph.VertexID, w graph.Weight, m uint64) {
	pc := pw.pc
	for need := m &^ pw.have; need != 0; need &= need - 1 {
		k := bits.TrailingZeros64(need)
		pw.cur[k] = atomic.LoadUint64(&pc.vals[pw.base+pc.soff[k]])
	}
	pw.have |= m
	pw.improved |= pc.edge(&pw.c, int(d)*pc.vw, w, &pw.cur, m)
}

// open starts the re-evaluation of vertex v: nothing hoisted, nothing
// improved yet.
func (pw *pullWorker) open(v graph.VertexID) {
	pw.base = int(v) * pw.pc.vw
	pw.have, pw.improved = 0, 0
}

// publish stores the slots improved since open into the vertex's block and
// returns their mask.
func (pw *pullWorker) publish() uint64 {
	pc := pw.pc
	for m := pw.improved; m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		atomic.StoreUint64(&pc.vals[pw.base+pc.soff[k]], pw.cur[k])
	}
	pw.c.upd += int64(bits.OnesCount64(pw.improved))
	return pw.improved
}

// vertex re-evaluates v: every out-arc whose head is hot (all of them for
// a dirty vertex in round 0) is relaxed at the hot slots against v's
// register block, the improved slots are published, and their mask is
// returned.
func (pw *pullWorker) vertex(v graph.VertexID) uint64 {
	pc := pw.pc
	pw.open(v)
	dsts, ws := pc.g.OutSpan(v)
	if hot := pc.hot; hot == nil {
		for i, d := range dsts {
			pw.relax(d, ws[i], pc.full)
		}
	} else {
		for i, d := range dsts {
			if m := hot[d]; m != 0 {
				pw.relax(d, ws[i], m)
			}
		}
	}
	pw.c.acts += int64(bits.OnesCount64(pw.have))
	return pw.publish()
}

// tail re-evaluates the common tail of run over those arcs alone, at all K
// slots. The tail's other out-arcs are not looked at — no vertex function
// runs — so the work counts as relaxations and one hoist, not as
// activations.
func (pw *pullWorker) tail(run []graph.Edge) uint64 {
	pw.open(run[0].Src)
	pw.c.hoists++
	for _, a := range run {
		pw.relax(a.Dst, a.W, pw.pc.full)
	}
	return pw.publish()
}

// forArcRuns calls body(worker, run) once for every maximal run of arcs
// sharing a tail, in parallel: workers claim chunks of the list, and a run
// belongs to the chunk its first arc falls in. arcs must be sorted by Src
// (ArcDelta.InsertedArcs is), so each tail is handed to exactly one worker
// — the exclusivity the pull's per-vertex accumulation rests on, and what
// lets the push hoist a tail once per run. An unsorted list is a caller
// bug and panics before any worker starts.
func forArcRuns(arcs []graph.Edge, body func(worker int, run []graph.Edge)) {
	for i := 1; i < len(arcs); i++ {
		if arcs[i].Src < arcs[i-1].Src {
			panic("engine: arc list not sorted by source")
		}
	}
	parallel.ForRangeID(len(arcs), 64, func(wid, start, end int) {
		for start < end && start > 0 && arcs[start].Src == arcs[start-1].Src {
			start++ // the run in progress belongs to the chunk before
		}
		for start < end {
			stop := start + 1
			for stop < len(arcs) && arcs[stop].Src == arcs[start].Src {
				stop++
			}
			body(wid, arcs[start:stop])
			start = stop
		}
	})
}

func vertexAtIndex(i int) graph.VertexID { return graph.VertexID(i) }

// RunPullCtx is RunPull with cooperative cancellation, checked once per
// round. On cancellation it returns a *CanceledError; the state holds the
// partially-improved (still sound, not converged) values.
func (st *State) RunPullCtx(ctx context.Context, g ArcView, dirty []graph.VertexID, stats *Stats) error {
	return st.runPull(ctx, g, len(dirty), func(i int) graph.VertexID { return dirty[i] }, nil, stats)
}

// RunPullAllCtx is RunPullAll with cooperative cancellation (see
// RunPullCtx).
func (st *State) RunPullAllCtx(ctx context.Context, g ArcView, stats *Stats) error {
	return st.runPull(ctx, g, g.NumVertices(), vertexAtIndex, nil, stats)
}

// RunPullArcsCtx is RunPullArcs with cooperative cancellation (see
// RunPullCtx).
func (st *State) RunPullArcsCtx(ctx context.Context, g ArcView, arcs []graph.Edge, stats *Stats) error {
	return st.runPull(ctx, g, 0, nil, arcs, stats)
}

// runPull is the pull model's one loop: a round 0 that produces the first
// hot set, then filtered sweeps until one improves nothing. Round 0 has
// two producers. Dirty vertices (dirty of them, dirtyAt naming the i-th)
// are re-evaluated over all their out-arcs. Arcs are relaxed head→tail,
// each tail over its listed arcs only. Both publish through the same
// register block into the same mask array the first sweep reads.
func (st *State) runPull(ctx context.Context, g ArcView, dirty int, dirtyAt func(i int) graph.VertexID, arcs []graph.Edge, stats *Stats) error {
	st.checkStorage()
	n := g.NumVertices()
	if n > st.N {
		st.Grow(n)
	}
	if dirty == 0 && len(arcs) == 0 {
		return nil
	}
	pc := &pullCtx{g: g, p: st.P, full: fullMask(st.K)}
	pc.spec, pc.hasSpec = kernelSpecFor(st.P)
	pc.vals, pc.vw, pc.soff = st.StrideViews()
	workers := make([]pullWorker, parallel.MaxWorkers())
	for i := range workers {
		workers[i].pc = pc
	}
	scr := getPushScratch(st.N)

	// round runs one parallel pass over count vertices (vertexAt names the
	// i-th), recording each one's improved-slot mask, and reports whether
	// any improved.
	round := func(count, grain int, vertexAt func(i int) graph.VertexID) bool {
		stats.Iterations++
		var any atomic.Bool
		parallel.ForRangeID(count, grain, func(wid, start, end int) {
			pw := &workers[wid]
			var seen uint64
			for i := start; i < end; i++ {
				v := vertexAt(i)
				imp := pw.vertex(v)
				pc.improved[v] = imp
				seen |= imp
			}
			if seen != 0 {
				any.Store(true)
			}
		})
		return any.Load()
	}
	// arcRound is round 0 over arcs. The scratch masks start out zero, so
	// only the tails that improved are written.
	arcRound := func() bool {
		stats.Iterations++
		var any atomic.Bool
		forArcRuns(arcs, func(wid int, run []graph.Edge) {
			if imp := workers[wid].tail(run); imp != 0 {
				pc.improved[run[0].Src] = imp
				any.Store(true)
			}
		})
		return any.Load()
	}

	var canceled error
	stop := func() bool {
		if err := ctx.Err(); err != nil {
			canceled = &CanceledError{Iterations: stats.Iterations, Cause: err}
		}
		return canceled != nil
	}
	pc.improved = scr.masks
	more := false
	switch {
	case stop():
	case len(arcs) > 0:
		more = arcRound()
	default:
		more = round(dirty, 16, dirtyAt)
	}
	pc.hot, pc.improved = scr.masks, scr.next
	swept := false
	for more && !stop() {
		more = round(n, 256, vertexAtIndex)
		pc.hot, pc.improved = pc.improved, pc.hot
		swept = true
	}
	for i := range workers {
		c := &workers[i].c
		stats.Activations += c.acts
		stats.Relaxations += c.relax
		stats.Updates += c.upd
		stats.Hoists += c.hoists
	}
	// Hand the scratch back drained. A sweep overwrites every mask word, so
	// the last one (it improved nothing) left its output all zero; the
	// masks it read are the ones to clear. A round 0 that improved nothing
	// wrote only zeros. A canceled run may leave both arrays live, so its
	// scratch is dropped, like RunPushCtx's.
	if canceled == nil {
		if swept {
			clear(pc.improved)
		}
		putPushScratch(scr)
	}
	return canceled
}
