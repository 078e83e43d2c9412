// Pull kernel: owner-exclusive register accumulation.
//
// In the pull model each vertex writes only its own value block — no
// other worker ever writes those words. The kernel exploits the
// exclusivity: it snapshots the vertex's block into a stack register
// block with plain reads (race-free — concurrent workers only
// atomic-load these words, and the owner is the sole writer), accumulates
// improvements in registers across the whole edge loop, and publishes
// each improved slot with a single atomic store at the end. Neighbor
// reads stay atomic loads, pairing with those stores.
//
// Improvements become visible to other vertices only after the owner's
// edge loop, which can only defer work to the next round — the round loop
// repeats until no vertex improves, and the fixpoint of a monotonic
// problem is unique. The exclusivity holds within one evaluation only:
// unlike RunPushCtx, concurrent RunPullCtx calls must not share a state.
package engine

import (
	"context"
	"math/bits"
	"sync/atomic"

	"tripoline/internal/graph"
	"tripoline/internal/parallel"
)

// pullCtx parameterizes the pull kernel over the state's storage: value
// (v,k) lives at vals[v*vw+soff[k]] — State.StrideViews' (arr, stride,
// offs).
type pullCtx struct {
	p       Problem
	spec    KernelSpec
	hasSpec bool
	K       int
	vals    []uint64
	vw      int
	soff    []int
}

// edge relaxes one in-edge (weight w, neighbor block at dbase) against
// the register block cur, improving cur in place. Returns the mask of
// slots improved by this edge; c.relax counts one attempt per non-gated
// neighbor slot.
func (pc *pullCtx) edge(c *workCounter, dbase int, w graph.Weight, cur *[64]uint64) uint64 {
	vals, soff := pc.vals, pc.soff
	K := pc.K
	var improved uint64
	if !pc.hasSpec {
		p := pc.p
		for k := 0; k < K; k++ {
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
		for k := 0; k < K; k++ {
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
		for k := 0; k < K; k++ {
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
		for k := 0; k < K; k++ {
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
		for k := 0; k < K; k++ {
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
		for k := 0; k < K; k++ {
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
		for k := 0; k < K; k++ {
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

// RunPullCtx is RunPull with cooperative cancellation, checked once per
// dense round. On cancellation it returns a *CanceledError; the state
// holds the partially-improved (still sound, not converged) values.
func (st *State) RunPullCtx(ctx context.Context, g View, stats *Stats) error {
	st.checkStorage()
	n := g.NumVertices()
	if n > st.N {
		st.Grow(n)
	}
	fv, _ := g.(FlatView)
	K := st.K
	pc := &pullCtx{p: st.P, K: K}
	pc.spec, pc.hasSpec = kernelSpecFor(st.P)
	pc.vals, pc.vw, pc.soff = st.StrideViews()
	counters := make([]workCounter, parallel.MaxWorkers())
	var canceled error
	for {
		if err := ctx.Err(); err != nil {
			canceled = &CanceledError{Iterations: stats.Iterations, Cause: err}
			break
		}
		stats.Iterations++
		var changed atomic.Bool
		parallel.ForRangeID(n, 64, func(wid, start, end int) {
			c := &counters[wid]
			vals, vw, soff := pc.vals, pc.vw, pc.soff
			var cur [64]uint64
			var w int64
			for v := start; v < end; v++ {
				base := v * vw
				// Owner snapshot: only this worker writes v's block, so
				// the plain reads are race-free; every improved slot is
				// re-published below with an atomic store that the other
				// workers' atomic neighbor loads pair with.
				for k := 0; k < K; k++ {
					cur[k] = vals[base+soff[k]]
				}
				var improvedAll uint64
				if fv != nil {
					dsts, ws := fv.OutSpan(graph.VertexID(v))
					for i, d := range dsts {
						imp := pc.edge(c, int(d)*vw, ws[i], &cur)
						w += int64(bits.OnesCount64(imp))
						improvedAll |= imp
					}
				} else {
					g.ForEachOut(graph.VertexID(v), func(d graph.VertexID, wgt graph.Weight) {
						imp := pc.edge(c, int(d)*vw, wgt, &cur)
						w += int64(bits.OnesCount64(imp))
						improvedAll |= imp
					})
				}
				for m := improvedAll; m != 0; m &= m - 1 {
					k := bits.TrailingZeros64(m)
					atomic.StoreUint64(&vals[base+soff[k]], cur[k])
				}
			}
			c.acts += int64(K) * int64(end-start)
			c.upd += w
			if w > 0 {
				changed.Store(true)
			}
		})
		if !changed.Load() {
			break
		}
	}
	for i := range counters {
		stats.Activations += counters[i].acts
		stats.Relaxations += counters[i].relax
		stats.Updates += counters[i].upd
	}
	return canceled
}
