// Push kernels: the width-K kernel over the slot-blocked value storage
// and its K=1 specialization over the contiguous value array.
//
// Three ideas, layered:
//
//  1. Register-block hoisting. Re-loading the source value atomically per
//     (edge × active slot) costs up to 64 dependent atomic loads per edge
//     at K=64. The kernel instead hoists the frontier vertex's
//     active-slot values into a stack block once per vertex before the
//     edge loop. This is sound for monotonic problems: if another worker
//     improves the source concurrently, it also re-marks the vertex
//     active (frontier.add), so the improvement propagates in a later
//     superstep; the hoisted (stale but still sound) values can only
//     under-propagate, never corrupt.
//
//  2. Devirtualized relaxation. All of package props' problems relax with
//     one of six scalar ops; KernelSpec names the op so the kernel's edge
//     loop runs a direct switch (one predictable branch per edge) instead
//     of two interface calls per (edge × slot). Problems without a spec
//     fall back to interface dispatch — still hoisted, still correct.
//
//  3. Cache-blocked dense sweeps. A dense superstep touches K·N·8 bytes of destination values with power-law-random
//     access. When that working set exceeds windowBudget, the kernel
//     splits the vertex ID space into ascending destination windows and
//     runs one pass per window, advancing a per-vertex arc cursor through
//     the destination-sorted adjacency, so each pass's random writes land
//     in a bounded value window.
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
	// RelaxMulSat propagates satMul(src, w) (Viterbi probability chains).
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
// Unreached, which absorbs: a bit-identical transcription of props'
// saturating add.
func SatAdd(a, b uint64) uint64 {
	if s := a + b; s >= a {
		return s
	}
	return ^uint64(0)
}

// SatMul is a bit-identical transcription of props.satMul, local to
// the engine so the fused Viterbi relaxation needs no props import (which
// would be an import cycle).
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

// windowBudget is the destination-value working-set budget (bytes) of one
// dense-sweep window. 4 MiB keeps a window's K·span·8 bytes of randomly
// written values within a typical per-core L2+L3 share. A variable only
// so tests can force multi-window sweeps on small graphs.
var windowBudget = 4 << 20

// maxWindows caps the number of destination windows: each window pass
// re-walks the frontier's members, so unbounded splitting would trade
// cache hits for sweep overhead.
const maxWindows = 32

// blockWindows returns how many destination windows a dense sweep of an
// N-vertex, K-wide state should use (1 = unblocked).
func blockWindows(k, n int) int {
	bytes := k * n * 8
	w := (bytes + windowBudget - 1) / windowBudget
	if w > maxWindows {
		w = maxWindows
	}
	if w < 1 {
		w = 1
	}
	return w
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
	// windows > 1 selects the cache-blocked dense sweep.
	windows int

	f *frontier
}

// hoist loads u's active-slot source values into the stack register
// block src, once, before the edge loop. Loads are atomic: the words are
// concurrently CASed by other workers, and a plain read would be a data
// race (an atomic load costs the same as a plain one on amd64). With a
// spec, slots whose hoisted value is still the gate are pruned here —
// the returned live mask is what the edge loop iterates.
func (kc *pushKCtx) hoist(u graph.VertexID, mask uint64, src *[64]uint64, c *workCounter) (live uint64) {
	c.hoists++
	soff, cols := kc.soff, kc.cols
	ub := int(u) * kc.stride
	if !kc.hasSpec {
		for m := mask; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			src[k] = atomic.LoadUint64(&cols[soff[k]+ub])
		}
		return mask
	}
	gate := kc.spec.Gate
	for m := mask; m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		v := atomic.LoadUint64(&cols[soff[k]+ub])
		if v == gate {
			continue
		}
		src[k] = v
		live |= 1 << uint(k)
	}
	c.gates += int64(bits.OnesCount64(mask ^ live))
	return live
}

// relaxEdge relaxes one edge (u → d, weight w) for every live slot,
// reading sources from the hoisted register block. The spec switch sits
// per edge, outside the slot loop, so its cost amortizes over the K
// slots; each case's inner loop is branch-predictable straight-line code
// with a monomorphic CAS.
func (kc *pushKCtx) relaxEdge(c *workCounter, d graph.VertexID, w graph.Weight, src *[64]uint64, live uint64) {
	soff, cols := kc.soff, kc.cols
	db := int(d) * kc.stride
	if !kc.hasSpec {
		p := kc.p
		for m := live; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			cand, ok := p.Relax(src[k], w)
			if !ok {
				continue
			}
			c.relax++
			if casImprove(&cols[soff[k]+db], cand, p) {
				c.upd++
				kc.f.addMask(c, d, 1<<uint(k))
			}
		}
		return
	}
	switch kc.spec.Kind {
	case RelaxAddWeight:
		wv := uint64(w)
		for m := live; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			c.relax++
			if casImproveLess(&cols[soff[k]+db], src[k]+wv) {
				c.upd++
				kc.f.addMask(c, d, 1<<uint(k))
			}
		}
	case RelaxAddOne:
		for m := live; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			c.relax++
			if casImproveLess(&cols[soff[k]+db], src[k]+1) {
				c.upd++
				kc.f.addMask(c, d, 1<<uint(k))
			}
		}
	case RelaxMinWeight:
		wv := uint64(w)
		for m := live; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			cand := src[k]
			if wv < cand {
				cand = wv
			}
			c.relax++
			if casImproveGreater(&cols[soff[k]+db], cand) {
				c.upd++
				kc.f.addMask(c, d, 1<<uint(k))
			}
		}
	case RelaxMaxWeight:
		wv := uint64(w)
		for m := live; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			cand := src[k]
			if wv > cand {
				cand = wv
			}
			c.relax++
			if casImproveLess(&cols[soff[k]+db], cand) {
				c.upd++
				kc.f.addMask(c, d, 1<<uint(k))
			}
		}
	case RelaxMulSat:
		wv := uint64(w)
		for m := live; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			c.relax++
			if casImproveLess(&cols[soff[k]+db], SatMul(src[k], wv)) {
				c.upd++
				kc.f.addMask(c, d, 1<<uint(k))
			}
		}
	case RelaxConst:
		cand := kc.spec.Const
		improve := casImproveLess
		if kc.spec.MaxWins {
			improve = casImproveGreater
		}
		for m := live; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			c.relax++
			if improve(&cols[soff[k]+db], cand) {
				c.upd++
				kc.f.addMask(c, d, 1<<uint(k))
			}
		}
	}
}

// relaxSpan relaxes a run of arcs (dsts[i], wgts[i]) for every live
// slot, with the spec switch hoisted out of the arc loop entirely — the
// width-K analogue of the K=1 kernel's flatEdges. The live slots are
// compacted once per span into dense stack arrays (destination offset,
// hoisted source value, slot bit), so the (arc × slot) double loops
// below run with no mask arithmetic and no per-arc call or dispatch.
// Problems without a spec keep the per-edge interface path.
func (kc *pushKCtx) relaxSpan(c *workCounter, dsts []graph.VertexID, wgts []graph.Weight, src *[64]uint64, live uint64) {
	if !kc.hasSpec {
		for i, d := range dsts {
			kc.relaxEdge(c, d, wgts[i], src, live)
		}
		return
	}
	soff, cols, stride := kc.soff, kc.cols, kc.stride
	var offs [64]int
	var vals [64]uint64
	var slot [64]uint64
	ns := 0
	for m := live; m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		offs[ns], vals[ns], slot[ns] = soff[k], src[k], m&-m
		ns++
	}
	switch kc.spec.Kind {
	case RelaxAddWeight:
		for i, d := range dsts {
			wv := uint64(wgts[i])
			db := int(d) * stride
			for j := 0; j < ns; j++ {
				if casImproveLess(&cols[offs[j]+db], vals[j]+wv) {
					c.upd++
					kc.f.addMask(c, d, slot[j])
				}
			}
		}
	case RelaxAddOne:
		for j := 0; j < ns; j++ {
			vals[j]++
		}
		for _, d := range dsts {
			db := int(d) * stride
			for j := 0; j < ns; j++ {
				if casImproveLess(&cols[offs[j]+db], vals[j]) {
					c.upd++
					kc.f.addMask(c, d, slot[j])
				}
			}
		}
	case RelaxMinWeight:
		for i, d := range dsts {
			wv := uint64(wgts[i])
			db := int(d) * stride
			for j := 0; j < ns; j++ {
				cand := vals[j]
				if wv < cand {
					cand = wv
				}
				if casImproveGreater(&cols[offs[j]+db], cand) {
					c.upd++
					kc.f.addMask(c, d, slot[j])
				}
			}
		}
	case RelaxMaxWeight:
		for i, d := range dsts {
			wv := uint64(wgts[i])
			db := int(d) * stride
			for j := 0; j < ns; j++ {
				cand := vals[j]
				if wv > cand {
					cand = wv
				}
				if casImproveLess(&cols[offs[j]+db], cand) {
					c.upd++
					kc.f.addMask(c, d, slot[j])
				}
			}
		}
	case RelaxMulSat:
		for i, d := range dsts {
			wv := uint64(wgts[i])
			db := int(d) * stride
			for j := 0; j < ns; j++ {
				if casImproveLess(&cols[offs[j]+db], SatMul(vals[j], wv)) {
					c.upd++
					kc.f.addMask(c, d, slot[j])
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
			for j := 0; j < ns; j++ {
				if improve(&cols[offs[j]+db], cand) {
					c.upd++
					kc.f.addMask(c, d, slot[j])
				}
			}
		}
	}
	// Every (arc, live slot) pair is one relaxation attempt — counted in
	// bulk; the gate pruning already happened at hoist time.
	c.relax += int64(len(dsts)) * int64(ns)
}

// process is the fused vertex function: hoist once, then relax every
// out-edge from the register block.
func (kc *pushKCtx) process(c *workCounter, u graph.VertexID) {
	mask := kc.f.masks[u]
	kc.f.masks[u] = 0
	c.acts += int64(bits.OnesCount64(mask))
	var src [64]uint64
	live := kc.hoist(u, mask, &src, c)
	if live == 0 {
		return
	}
	dsts, ws := kc.g.OutSpan(u)
	kc.relaxSpan(c, dsts, ws, &src, live)
}

// tail is the arc round's unit of work: relax the arcs of run, which share
// a tail, into their heads at all K slots from one hoist of the tail.
func (kc *pushKCtx) tail(c *workCounter, run []graph.Edge) {
	var src [64]uint64
	live := kc.hoist(run[0].Src, fullMask(kc.K), &src, c)
	if live == 0 {
		return
	}
	for _, a := range run {
		kc.relaxEdge(c, a.Dst, a.W, &src, live)
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

// denseWindowed is the cache-blocked dense superstep: kc.windows passes
// over the frontier's members, pass wi relaxing only arcs whose
// destination falls in the wi-th ascending window of the vertex ID space.
// cursors[v] is v's position within its destination-sorted span
// (OutSpan): zeroed in the first window, it advances monotonically, and
// once the span is used up it is parked at spanDone so later windows skip
// v without fetching the span again. Slot masks are cleared only in the
// last window (marks go to the next round's masks, so re-reading this
// round's across windows is safe), activations are counted once (first
// window), and sources are re-hoisted per window — each hoist sees
// equal-or-better values, which is sound for the same monotonicity reason
// as hoisting itself.
func (kc *pushKCtx) denseWindowed(n int, cursors []int32) {
	windows := kc.windows
	span := (n + windows - 1) / windows
	masks := kc.f.masks
	for wi := 0; wi < windows; wi++ {
		hi := (wi + 1) * span
		if hi > n {
			hi = n
		}
		first := wi == 0
		last := wi == windows-1
		kc.f.forDense(n, func(c *workCounter, v graph.VertexID) {
			mask := masks[v]
			if first {
				c.acts += int64(bits.OnesCount64(mask))
				cursors[v] = 0
			}
			if last {
				masks[v] = 0
			}
			cur := cursors[v]
			if cur == spanDone {
				return
			}
			// Find the window's arc run up front (a sequential scan of
			// the already-cached span), so the relaxation below is one
			// span call with the spec switch outside the arc loop. An
			// empty run (power-law graphs put most vertices' handful of
			// arcs in a few windows) skips the hoist entirely.
			dsts, ws := kc.g.OutSpan(v)
			stop := int(cur)
			for stop < len(dsts) && int(dsts[stop]) < hi {
				stop++
			}
			if stop == len(dsts) {
				cursors[v] = spanDone
			} else {
				cursors[v] = int32(stop)
			}
			if stop == int(cur) {
				return
			}
			var src [64]uint64
			live := kc.hoist(v, mask, &src, c)
			if live == 0 {
				return
			}
			kc.relaxSpan(c, dsts[cur:stop], ws[cur:stop], &src, live)
		})
		kc.f.counters[0].sweep++
	}
}

// spanDone is the dense-sweep cursor of a vertex whose span has no arcs
// left for later windows.
const spanDone = -1

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

// process is the K=1 vertex function: load u's value once, then relax
// every out-edge from it.
func (kc *push1Ctx) process(c *workCounter, u graph.VertexID) {
	c.acts++
	c.hoists++
	src := atomic.LoadUint64(&kc.vals[u])
	if kc.hasSpec {
		if src == kc.spec.Gate {
			c.gates++
			return
		}
		kc.flatEdges(c, u, src)
		return
	}
	dsts, ws := kc.g.OutSpan(u)
	for i, d := range dsts {
		kc.genericEdge(c, d, ws[i], src)
	}
}

// genericEdge relaxes one edge through the Problem interface, for problems
// that name no fused op.
func (kc *push1Ctx) genericEdge(c *workCounter, d graph.VertexID, w graph.Weight, src uint64) {
	cand, ok := kc.p.Relax(src, w)
	if !ok {
		return
	}
	c.relax++
	if casImprove(&kc.vals[d], cand, kc.p) {
		c.upd++
		kc.f.add(c, d)
	}
}

// tail is the arc round's unit of work at K=1: relax the arcs of run,
// which share a tail, into their heads from one load of the tail's value.
func (kc *push1Ctx) tail(c *workCounter, run []graph.Edge) {
	c.hoists++
	src := atomic.LoadUint64(&kc.vals[run[0].Src])
	if !kc.hasSpec {
		for _, a := range run {
			kc.genericEdge(c, a.Dst, a.W, src)
		}
		return
	}
	if src == kc.spec.Gate {
		c.gates++
		return
	}
	for _, a := range run {
		kc.specEdge(c, a.Dst, a.W, src)
	}
}

// flatEdges is the devirtualized edge loop of the K=1 kernel: the spec
// switch is hoisted out of the edge loop entirely, so each case is a
// tight loop of load/op/CAS over the arc span. Every arc is one
// relaxation attempt, counted in bulk.
func (kc *push1Ctx) flatEdges(c *workCounter, u graph.VertexID, src uint64) {
	dsts, ws := kc.g.OutSpan(u)
	vals := kc.vals
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
			cand := src
			if wv := uint64(ws[i]); wv < cand {
				cand = wv
			}
			if casImproveGreater(&vals[d], cand) {
				c.upd++
				kc.f.add(c, d)
			}
		}
	case RelaxMaxWeight:
		for i, d := range dsts {
			cand := src
			if wv := uint64(ws[i]); wv > cand {
				cand = wv
			}
			if casImproveLess(&vals[d], cand) {
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

// specEdge relaxes one edge under the spec where edges arrive one at a time
// — the arc round.
func (kc *push1Ctx) specEdge(c *workCounter, d graph.VertexID, w graph.Weight, src uint64) {
	var cand uint64
	switch kc.spec.Kind {
	case RelaxAddWeight:
		cand = src + uint64(w)
	case RelaxAddOne:
		cand = src + 1
	case RelaxMinWeight:
		cand = src
		if wv := uint64(w); wv < cand {
			cand = wv
		}
	case RelaxMaxWeight:
		cand = src
		if wv := uint64(w); wv > cand {
			cand = wv
		}
	case RelaxMulSat:
		cand = SatMul(src, uint64(w))
	default:
		cand = kc.spec.Const
	}
	c.relax++
	var won bool
	if kc.spec.MaxWins {
		won = casImproveGreater(&kc.vals[d], cand)
	} else {
		won = casImproveLess(&kc.vals[d], cand)
	}
	if won {
		c.upd++
		kc.f.add(c, d)
	}
}
