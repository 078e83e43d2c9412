// Package triangle implements the graph triangle inequality abstraction of
// §3 and the Δ-based incremental initialization of §4.1 of the paper.
//
// Given a standing query q(r) whose converged property array holds
// property(r, x) for every x, and the scalar property(u, r) linking the
// user query's source u to r, the Δ initialization
//
//	Δ(u,r)[x] = property(u,r) ⊕ property(r,x)
//
// is, by the problem's triangle inequality, never better than the true
// converged value property(u,x). Seeding a monotonic, async-safe
// evaluation with Δ(u,r) therefore converges to exactly the same result
// as a from-scratch evaluation (Theorem 4.4), usually after far less work.
//
// A query does not stop at Eq. 15's one root: DeltaInitMeet writes the
// meet Δ(u)[x] = ⊕-best over roots r of Δ(u,r)[x]. It is sound because
// no term is better than property(u,x), and each term comes from a
// fixpoint column, so their meet is a fixpoint everywhere but at u and
// the source alone still seeds the evaluation. A root r′ can be left out
// exactly when a kept root r has property(u,r) ⊕ property(r,r′) at least
// as good as property(u,r′): by the triangle inequality over r's exact
// column, Δ(u,r′) is then nowhere better than Δ(u,r).
package triangle

import (
	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/parallel"
)

// DeltaInit materializes Δ(u,r) for a user query with source u: for each
// vertex x, Combine(propUR, standing[x]). standing must hold
// property(r, x) for all x. The source vertex u is reset to the problem's
// source value, and r's own entry becomes Combine(propUR, property(r,r)).
//
// The returned slice is freshly allocated and suitable as the Values of a
// K=1 engine.State.
func DeltaInit(p engine.Problem, u graph.VertexID, propUR uint64, standing []uint64) []uint64 {
	init := make([]uint64, len(standing))
	DeltaInitInto(init, p, u, propUR, standing)
	return init
}

// DeltaInitInto is DeltaInit writing into dst (len(dst) ≥ len(standing)).
func DeltaInitInto(dst []uint64, p engine.Problem, u graph.VertexID, propUR uint64, standing []uint64) {
	DeltaInitMeet(dst, 1, 0, p, u, []Lane{{Off: 0, PropUR: propUR}}, standing, 1, len(standing))
}

// Lane is one standing root a Δ-initialization meets over: the offset of
// the root's slot in the standing state's storage (the off of
// engine.State.StrideView) and property(u, r).
type Lane struct {
	Off    int
	PropUR uint64
}

// DeltaInitMeet writes the meet over lanes of Δ(u,r) to n vertices of a
// strided destination (engine.State.StrideView): dst[x*dstStride+dstOff]
// becomes the ⊕-best over lanes l of Combine(l.PropUR, property(r,x)),
// which it reads in place at src[x*srcStride+l.Off], and u's entry the
// source value. With no lanes every other entry is the init value. A
// query Δ-initializes each slot of its own state this way straight out
// of the standing state's slot-blocked storage, with no column copied in
// between. It runs in parallel blocks with a plain loop inside each.
func DeltaInitMeet(dst []uint64, dstStride, dstOff int, p engine.Problem, u graph.VertexID, lanes []Lane, src []uint64, srcStride, n int) {
	meet, init := MeetOf(p), p.InitValue()
	parallel.ForRange(n, parallel.BlockGrain, func(lo, hi int) {
		d, s := lo*dstStride+dstOff, lo*srcStride
		if len(lanes) > 0 {
			meet(dst, d, dstStride, src, s, srcStride, lanes, hi-lo)
			return
		}
		for x := lo; x < hi; x++ {
			dst[d] = init
			d += dstStride
		}
	})
	if int(u) < n {
		dst[int(u)*dstStride+dstOff] = p.SourceValue()
	}
}

// MeetFunc writes the meet over a non-empty list of lanes for cnt
// consecutive vertices: the first vertex's value goes to dst[d] and its
// lanes sit at src[s+l.Off]; each next vertex is ds and ss further on.
// With cnt = 1 it is the meet at one vertex, which is how a deletion
// repair resets a tainted lane value (standing.Manager.UpdateDeletions).
type MeetFunc func(dst []uint64, d, ds int, src []uint64, s, ss int, lanes []Lane, cnt int)

// MeetOf returns p's MeetFunc. Each engine.KernelSpec kind has its own,
// whose ⊕ and order are inline, so the loop over vertices and lanes
// makes no call (through the interface the meet costs more than it
// saves); a problem with no spec runs the same loop through the
// interface.
func MeetOf(p engine.Problem) MeetFunc {
	spec, fused := engine.KernelSpecOf(p)
	switch {
	case fused && !spec.MaxWins && (spec.Kind == engine.RelaxAddWeight || spec.Kind == engine.RelaxAddOne):
		return meetSatAdd
	case fused && spec.MaxWins && spec.Kind == engine.RelaxMinWeight:
		return meetMin
	case fused && !spec.MaxWins && spec.Kind == engine.RelaxMaxWeight:
		return meetMax
	case fused && !spec.MaxWins && spec.Kind == engine.RelaxMulSat:
		return meetSatMul
	case fused && spec.MaxWins && spec.Kind == engine.RelaxConst:
		return meetAnd
	}
	return func(dst []uint64, d, ds int, src []uint64, s, ss int, lanes []Lane, cnt int) {
		first, rest := lanes[0], lanes[1:]
		for ; cnt > 0; cnt-- {
			best := p.Combine(first.PropUR, src[s+first.Off])
			for _, l := range rest {
				if c := p.Combine(l.PropUR, src[s+l.Off]); p.Better(c, best) {
					best = c
				}
			}
			dst[d] = best
			d, s = d+ds, s+ss
		}
	}
}

// single returns the destination and source runs of a one-lane meet over
// contiguous storage (both strides 1) with the lane's property(u, r);
// ok is false for any other meet. A width-1 query out of a width-1
// standing set — what Narrow leaves the min/max problems — is this case.
// Over two runs of one length (the caller reslices one to the other) the
// loop checks its bounds once instead of indexing two strided arrays per
// vertex, which halves the pass.
func single(dst []uint64, d, ds int, src []uint64, s, ss int, lanes []Lane, cnt int) (dr, sr []uint64, pu uint64, ok bool) {
	if len(lanes) != 1 || ds != 1 || ss != 1 {
		return nil, nil, 0, false
	}
	s += lanes[0].Off
	return dst[d : d+cnt], src[s : s+cnt], lanes[0].PropUR, true
}

// meetSatAdd is the meet of the additive problems (SSSP, BFS): the least
// saturating sum.
func meetSatAdd(dst []uint64, d, ds int, src []uint64, s, ss int, lanes []Lane, cnt int) {
	if dr, sr, pu, ok := single(dst, d, ds, src, s, ss, lanes, cnt); ok {
		dr = dr[:len(sr)]
		for i, v := range sr {
			dr[i] = engine.SatAdd(pu, v)
		}
		return
	}
	first, rest := lanes[0], lanes[1:]
	for ; cnt > 0; cnt-- {
		best := engine.SatAdd(first.PropUR, src[s+first.Off])
		for _, l := range rest {
			best = min(best, engine.SatAdd(l.PropUR, src[s+l.Off]))
		}
		dst[d] = best
		d, s = d+ds, s+ss
	}
}

// meetMin is the widest path's meet: the widest of the narrower halves.
func meetMin(dst []uint64, d, ds int, src []uint64, s, ss int, lanes []Lane, cnt int) {
	if dr, sr, pu, ok := single(dst, d, ds, src, s, ss, lanes, cnt); ok {
		dr = dr[:len(sr)]
		for i, v := range sr {
			dr[i] = min(pu, v)
		}
		return
	}
	first, rest := lanes[0], lanes[1:]
	for ; cnt > 0; cnt-- {
		best := min(first.PropUR, src[s+first.Off])
		for _, l := range rest {
			best = max(best, min(l.PropUR, src[s+l.Off]))
		}
		dst[d] = best
		d, s = d+ds, s+ss
	}
}

// meetMax is the narrowest path's meet: the narrowest of the wider
// halves (Unreached, the largest word, absorbs).
func meetMax(dst []uint64, d, ds int, src []uint64, s, ss int, lanes []Lane, cnt int) {
	if dr, sr, pu, ok := single(dst, d, ds, src, s, ss, lanes, cnt); ok {
		dr = dr[:len(sr)]
		for i, v := range sr {
			dr[i] = max(pu, v)
		}
		return
	}
	first, rest := lanes[0], lanes[1:]
	for ; cnt > 0; cnt-- {
		best := max(first.PropUR, src[s+first.Off])
		for _, l := range rest {
			best = min(best, max(l.PropUR, src[s+l.Off]))
		}
		dst[d] = best
		d, s = d+ds, s+ss
	}
}

// meetSatMul is Viterbi's meet: the least saturating product of weights.
func meetSatMul(dst []uint64, d, ds int, src []uint64, s, ss int, lanes []Lane, cnt int) {
	if dr, sr, pu, ok := single(dst, d, ds, src, s, ss, lanes, cnt); ok {
		dr = dr[:len(sr)]
		for i, v := range sr {
			dr[i] = engine.SatMul(pu, v)
		}
		return
	}
	first, rest := lanes[0], lanes[1:]
	for ; cnt > 0; cnt-- {
		best := engine.SatMul(first.PropUR, src[s+first.Off])
		for _, l := range rest {
			best = min(best, engine.SatMul(l.PropUR, src[s+l.Off]))
		}
		dst[d] = best
		d, s = d+ds, s+ss
	}
}

// meetAnd is reachability's meet: reached through any lane.
func meetAnd(dst []uint64, d, ds int, src []uint64, s, ss int, lanes []Lane, cnt int) {
	if dr, sr, pu, ok := single(dst, d, ds, src, s, ss, lanes, cnt); ok {
		dr = dr[:len(sr)]
		for i, v := range sr {
			dr[i] = pu & v
		}
		return
	}
	first, rest := lanes[0], lanes[1:]
	for ; cnt > 0; cnt-- {
		best := first.PropUR & src[s+first.Off]
		for _, l := range rest {
			best = max(best, l.PropUR&src[s+l.Off])
		}
		dst[d] = best
		d, s = d+ds, s+ss
	}
}

// Holds verifies the triangle inequality for one concrete triple:
// property(u,x) must be at least as good as Combine(property(u,r),
// property(r,x)) — i.e. the combined value must NOT be strictly better
// than the direct one. Used by tests and available for runtime audits.
func Holds(p engine.Problem, propUR, propRX, propUX uint64) bool {
	combined := p.Combine(propUR, propRX)
	return !p.Better(combined, propUX)
}

// SelectStanding implements the runtime standing-query pick of Eq. 15:
// among the K standing queries, choose the one whose property(u, r_k) is
// best under the problem's order. propUR[k] must hold property(u, r_k)
// (for directed graphs, taken from the reversed standing state q⁻¹).
// It returns the chosen slot and its property value. If every candidate
// is at the init value (u cannot reach any standing root), slot 0 is
// returned with the init value — Δ then degenerates to the default
// initialization and the evaluation is effectively from scratch, which is
// still correct.
func SelectStanding(p engine.Problem, propUR []uint64) (slot int, val uint64) {
	slot, val = 0, propUR[0]
	for k := 1; k < len(propUR); k++ {
		if p.Better(propUR[k], val) {
			slot, val = k, propUR[k]
		}
	}
	return slot, val
}
