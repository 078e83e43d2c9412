// Push kernels: the width-K kernel over the slot-blocked value storage
// and its K=1 specialization over the contiguous value array. Every push
// round — a sparse or dense frontier superstep, the arc round's run of
// arcs sharing a tail — takes the same two steps: hoist the source once,
// then relax a span of arcs from it.
//
// Two ideas, layered:
//
//  1. Register-block hoisting. Re-loading the source value atomically per
//     (arc × active slot) costs up to 64 dependent atomic loads per arc
//     at K=64. The kernel instead hoists the source vertex's live slots
//     into its worker's register block once (regBlock: offset, value and
//     slot bit per slot, compacted), before the arc loop. This is sound
//     for monotonic problems: if another worker improves the source
//     concurrently, it also re-marks the vertex active (frontier.add), so
//     the improvement propagates in a later superstep; the hoisted (stale
//     but still sound) values can only under-propagate, never corrupt.
//
//  2. Devirtualized relaxation. All of package props' problems relax with
//     one of six scalar ops; KernelSpec names the op so one switch per
//     width (relaxSpan at K>1, flatEdges at K=1) runs outside the arc
//     loop, and each case is a straight loop of op and monomorphic CAS.
//     Problems without a spec fall back to interface dispatch — still
//     hoisted, still correct.
//
// The spec ops are transcriptions of the props implementations; the
// width-sweep tests hold every problem and width to the sequential
// oracle and to K independent K=1 runs.
package engine

import (
	"math/bits"
	"sync/atomic"

	"tripoline/internal/graph"
	"tripoline/internal/parallel"
)

// RelaxKind names one of the fused scalar relaxations.
type RelaxKind uint8

const (
	// RelaxGeneric means "no fused op": the kernel dispatches through the
	// Problem interface.
	RelaxGeneric RelaxKind = iota
	// RelaxAddWeight propagates src + w (SSSP).
	RelaxAddWeight
	// RelaxAddOne propagates src + 1 (BFS hop count).
	RelaxAddOne
	// RelaxMinWeight propagates min(src, w) (SSWP bottleneck width).
	RelaxMinWeight
	// RelaxMaxWeight propagates max(src, w) (SSNP narrowest-path dual).
	RelaxMaxWeight
	// RelaxMulSat propagates SatMul(src, w) (Viterbi probability chains).
	RelaxMulSat
	// RelaxConst propagates the spec's Const (SSR reachability).
	RelaxConst
)

// KernelSpec describes a problem's relaxation precisely enough for the
// fused kernels to run it without interface dispatch. The contract, which
// every props problem satisfies:
//
//   - Relax(src, w) returns ok=false exactly when src == Gate, and
//     otherwise returns the Kind's scalar op (never consulting more
//     state);
//   - Better(a, b) is a > b when MaxWins, a < b otherwise;
//   - Combine(a, b) is the Kind's ⊕: SatAdd for the two additive kinds,
//     min for RelaxMinWeight, max for RelaxMaxWeight, SatMul for
//     RelaxMulSat and a & b for RelaxConst. Package triangle's
//     Δ-initialization meet runs it without interface dispatch.
type KernelSpec struct {
	Kind RelaxKind
	// Gate is the source value that propagates nothing (the init value).
	Gate uint64
	// MaxWins is true when larger values are better.
	MaxWins bool
	// Const is the propagated value for RelaxConst.
	Const uint64
}

// SpecProblem is optionally implemented by problems whose relaxation is
// one of the fused scalar ops.
type SpecProblem interface {
	Problem
	KernelSpec() KernelSpec
}

// KernelSpecOf returns p's spec when p has one with a fused op.
func KernelSpecOf(p Problem) (KernelSpec, bool) {
	if sp, ok := p.(SpecProblem); ok {
		spec := sp.KernelSpec()
		if spec.Kind != RelaxGeneric {
			return spec, true
		}
	}
	return KernelSpec{}, false
}

// SatAdd is a + b saturated at ^uint64(0), the additive problems'
// Unreached, which absorbs: SSSP's and BFS's ⊕.
func SatAdd(a, b uint64) uint64 {
	if s := a + b; s >= a {
		return s
	}
	return ^uint64(0)
}

// SatMul is a · b with ^uint64(0) (Unreached) absorbing and overflow
// saturating just below it: Viterbi's relaxation and ⊕.
func SatMul(a, b uint64) uint64 {
	const unreached = ^uint64(0)
	if a == unreached || b == unreached {
		return unreached
	}
	if a == 0 || b == 0 {
		return 0
	}
	if a > (unreached-1)/b {
		return unreached - 1
	}
	return a * b
}

// casImproveLess is casImprove monomorphized for min-wins problems
// (Better(a, b) = a < b): no interface call in the retry loop.
func casImproveLess(addr *uint64, cand uint64) bool {
	for {
		old := atomic.LoadUint64(addr)
		if cand >= old {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, old, cand) {
			return true
		}
	}
}

// casImproveGreater is casImprove monomorphized for max-wins problems.
func casImproveGreater(addr *uint64, cand uint64) bool {
	for {
		old := atomic.LoadUint64(addr)
		if cand <= old {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, old, cand) {
			return true
		}
	}
}

// pushKCtx is the per-run context of the width-K push kernel over a
// slot-blocked (K>1) state.
type pushKCtx struct {
	g       ArcView
	p       Problem
	spec    KernelSpec
	hasSpec bool
	K       int
	cols    []uint64
	// soff[k] is slot k's base offset in the slot-blocked slab; the value
	// of (v, k) is cols[soff[k] + v·stride], stride being the state's
	// block width. Precomputed so the hot loops pay one add per slot
	// access.
	soff   []int
	stride int

	f *frontier
}

// hoist loads u's active-slot source values into c's register block,
// once, before the arc loop. Loads are atomic: the words are concurrently
// CASed by other workers, and a plain read would be a data race (an atomic
// load costs the same as a plain one on amd64). With a spec, slots whose
// hoisted value is still the gate are pruned here, so the block holds only
// the slots the arc loop relaxes; hoist reports whether any are left.
func (kc *pushKCtx) hoist(c *workCounter, u graph.VertexID, mask uint64) bool {
	c.hoists++
	soff, cols := kc.soff, kc.cols
	ub := int(u) * kc.stride
	gated, gate := kc.hasSpec, kc.spec.Gate
	blk := &c.blk
	n := 0
	for m := mask; m != 0; m &= m - 1 {
		off := soff[bits.TrailingZeros64(m)]
		v := atomic.LoadUint64(&cols[off+ub])
		if gated && v == gate {
			continue
		}
		blk.slots[n] = hoisted{off: off, val: v, bit: m & -m}
		n++
	}
	blk.n = n
	c.gates += int64(bits.OnesCount64(mask) - n)
	return n > 0
}

// relaxEdge relaxes one arc (→ d, weight w) through the Problem interface
// for every slot of c's register block: the path of problems that name no
// fused op.
func (kc *pushKCtx) relaxEdge(c *workCounter, d graph.VertexID, w graph.Weight) {
	p, cols := kc.p, kc.cols
	db := int(d) * kc.stride
	for _, s := range c.blk.live() {
		cand, ok := p.Relax(s.val, w)
		if !ok {
			continue
		}
		c.relax++
		if casImprove(&cols[s.off+db], cand, p) {
			c.upd++
			kc.f.addMask(c, d, s.bit)
		}
	}
}

// relaxSpan relaxes a run of arcs (dsts[i], wgts[i]) for every slot of c's
// register block, with the spec switch hoisted out of the arc loop
// entirely — the width-K analogue of the K=1 kernel's flatEdges. The block
// is already compacted, so the (arc × slot) double loops below run with no
// mask arithmetic and no per-arc call or dispatch.
func (kc *pushKCtx) relaxSpan(c *workCounter, dsts []graph.VertexID, wgts []graph.Weight) {
	if !kc.hasSpec {
		for i, d := range dsts {
			kc.relaxEdge(c, d, wgts[i])
		}
		return
	}
	cols, stride := kc.cols, kc.stride
	live := c.blk.live()
	switch kc.spec.Kind {
	case RelaxAddWeight:
		for i, d := range dsts {
			wv := uint64(wgts[i])
			db := int(d) * stride
			for _, s := range live {
				if casImproveLess(&cols[s.off+db], s.val+wv) {
					c.upd++
					kc.f.addMask(c, d, s.bit)
				}
			}
		}
	case RelaxAddOne:
		for _, d := range dsts {
			db := int(d) * stride
			for _, s := range live {
				if casImproveLess(&cols[s.off+db], s.val+1) {
					c.upd++
					kc.f.addMask(c, d, s.bit)
				}
			}
		}
	case RelaxMinWeight:
		for i, d := range dsts {
			wv := uint64(wgts[i])
			db := int(d) * stride
			for _, s := range live {
				if casImproveGreater(&cols[s.off+db], min(s.val, wv)) {
					c.upd++
					kc.f.addMask(c, d, s.bit)
				}
			}
		}
	case RelaxMaxWeight:
		for i, d := range dsts {
			wv := uint64(wgts[i])
			db := int(d) * stride
			for _, s := range live {
				if casImproveLess(&cols[s.off+db], max(s.val, wv)) {
					c.upd++
					kc.f.addMask(c, d, s.bit)
				}
			}
		}
	case RelaxMulSat:
		for i, d := range dsts {
			wv := uint64(wgts[i])
			db := int(d) * stride
			for _, s := range live {
				if casImproveLess(&cols[s.off+db], SatMul(s.val, wv)) {
					c.upd++
					kc.f.addMask(c, d, s.bit)
				}
			}
		}
	case RelaxConst:
		cand := kc.spec.Const
		improve := casImproveLess
		if kc.spec.MaxWins {
			improve = casImproveGreater
		}
		for _, d := range dsts {
			db := int(d) * stride
			for _, s := range live {
				if improve(&cols[s.off+db], cand) {
					c.upd++
					kc.f.addMask(c, d, s.bit)
				}
			}
		}
	}
	// Every (arc, block slot) pair is one relaxation attempt — counted in
	// bulk; the gate pruning already happened at hoist time.
	c.relax += int64(len(dsts)) * int64(len(live))
}

// process is the fused vertex function: hoist once, then relax every
// out-arc from the register block.
func (kc *pushKCtx) process(c *workCounter, u graph.VertexID) {
	mask := kc.f.masks[u]
	kc.f.masks[u] = 0
	c.acts += int64(bits.OnesCount64(mask))
	if kc.hoist(c, u, mask) {
		dsts, ws := kc.g.OutSpan(u)
		kc.relaxSpan(c, dsts, ws)
	}
}

// tail is the arc round's unit of work: relax the arcs of run, which share
// a tail, into their heads at all K slots from one hoist of the tail —
// laid out as a span, through the same relaxSpan as every other round.
func (kc *pushKCtx) tail(c *workCounter, run []graph.Edge) {
	if kc.hoist(c, run[0].Src, fullMask(kc.K)) {
		dsts, ws := c.arcSpan(run)
		kc.relaxSpan(c, dsts, ws)
	}
}

// forArcRuns calls body(worker, run) once for every maximal run of arcs
// sharing a tail, in parallel: workers claim chunks of the list, and a run
// belongs to the chunk its first arc falls in. arcs must be sorted by Src
// (ArcDelta.InsertedArcs is), so each tail is handed to exactly one worker
// and hoisted once per run. An unsorted list is a caller bug and panics
// before any worker starts.
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

// push1Ctx is the specialized K=1 push kernel: no masks, no slot
// arithmetic — a frontier member is active by membership alone, and the
// value array is indexed by vertex directly.
type push1Ctx struct {
	g       ArcView
	p       Problem
	spec    KernelSpec
	hasSpec bool
	vals    []uint64
	f       *frontier
}

// hoist loads u's value once, the K=1 register block, and reports
// whether it propagates anything (a spec's gate does not).
func (kc *push1Ctx) hoist(c *workCounter, u graph.VertexID) (src uint64, live bool) {
	c.hoists++
	src = atomic.LoadUint64(&kc.vals[u])
	if kc.hasSpec && src == kc.spec.Gate {
		c.gates++
		return src, false
	}
	return src, true
}

// process is the K=1 vertex function: hoist u's value, then relax every
// out-arc from it.
func (kc *push1Ctx) process(c *workCounter, u graph.VertexID) {
	c.acts++
	if src, live := kc.hoist(c, u); live {
		dsts, ws := kc.g.OutSpan(u)
		kc.flatEdges(c, dsts, ws, src)
	}
}

// tail is the arc round's unit of work at K=1: relax the arcs of run,
// which share a tail, into their heads from one load of the tail's value,
// laid out as a span.
func (kc *push1Ctx) tail(c *workCounter, run []graph.Edge) {
	if src, live := kc.hoist(c, run[0].Src); live {
		dsts, ws := c.arcSpan(run)
		kc.flatEdges(c, dsts, ws, src)
	}
}

// flatEdges is the K=1 kernel's arc loop: the spec switch is hoisted out
// of the loop entirely, so each case is a tight loop of load/op/CAS over
// the span, and every arc is one relaxation attempt, counted in bulk.
// Problems without a spec relax through the Problem interface.
func (kc *push1Ctx) flatEdges(c *workCounter, dsts []graph.VertexID, ws []graph.Weight, src uint64) {
	vals := kc.vals
	if !kc.hasSpec {
		p := kc.p
		for i, d := range dsts {
			cand, ok := p.Relax(src, ws[i])
			if !ok {
				continue
			}
			c.relax++
			if casImprove(&vals[d], cand, p) {
				c.upd++
				kc.f.add(c, d)
			}
		}
		return
	}
	c.relax += int64(len(dsts))
	switch kc.spec.Kind {
	case RelaxAddWeight:
		for i, d := range dsts {
			if casImproveLess(&vals[d], src+uint64(ws[i])) {
				c.upd++
				kc.f.add(c, d)
			}
		}
	case RelaxAddOne:
		cand := src + 1
		for _, d := range dsts {
			if casImproveLess(&vals[d], cand) {
				c.upd++
				kc.f.add(c, d)
			}
		}
	case RelaxMinWeight:
		for i, d := range dsts {
			if casImproveGreater(&vals[d], min(src, uint64(ws[i]))) {
				c.upd++
				kc.f.add(c, d)
			}
		}
	case RelaxMaxWeight:
		for i, d := range dsts {
			if casImproveLess(&vals[d], max(src, uint64(ws[i]))) {
				c.upd++
				kc.f.add(c, d)
			}
		}
	case RelaxMulSat:
		for i, d := range dsts {
			if casImproveLess(&vals[d], SatMul(src, uint64(ws[i]))) {
				c.upd++
				kc.f.add(c, d)
			}
		}
	case RelaxConst:
		cand := kc.spec.Const
		improve := casImproveLess
		if kc.spec.MaxWins {
			improve = casImproveGreater
		}
		for _, d := range dsts {
			if improve(&vals[d], cand) {
				c.upd++
				kc.f.add(c, d)
			}
		}
	}
}
