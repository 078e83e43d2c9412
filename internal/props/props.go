// Package props implements the vertex-specific graph problems of Table 1
// of the paper — BFS, SSSP, SSWP, SSNP, Viterbi, SSR, Radii, SSNSP — as
// engine.Problem instances, plus the non-vertex-specific PageRank and
// connected components (CC) used to show that Tripoline subsumes classic
// incremental processing.
//
// Every vertex value is encoded in a uint64:
//
//   - BFS/SSSP/SSNP/Radii: the value itself (levels, summed distances,
//     bottleneck widths), with Unreached = MaxUint64 as the init value;
//     better = smaller.
//   - SSWP: bottleneck width, init 0 (unreachable), source = MaxUint64
//     ("infinitely wide" empty path); better = larger.
//   - Viterbi: the path probability as math.Float64bits (all values are
//     non-negative floats, for which the bit pattern preserves order);
//     init 0.0, source 1.0; better = larger.
//   - SSR: 0 (unreached) or 1 (reached); better = larger.
//
// All Relax functions are monotonic and async-safe: they only ever move a
// value in its "better" direction and commute with concurrent updates, the
// correctness contract of Theorem 4.4.
package props

import (
	"math"

	"tripoline/internal/engine"
	"tripoline/internal/graph"
)

// Unreached is the encoded init value for minimizing problems.
const Unreached = math.MaxUint64

// ---------------------------------------------------------------- SSSP --

// SSSP is single-source shortest paths over positive integer weights.
// property(v1,v2) = min path weight; ⊕ = saturating +; ⪰ = ≥.
type SSSP struct{}

func (SSSP) Name() string        { return "SSSP" }
func (SSSP) InitValue() uint64   { return Unreached }
func (SSSP) SourceValue() uint64 { return 0 }

func (SSSP) Relax(srcVal uint64, w graph.Weight) (uint64, bool) {
	if srcVal == Unreached {
		return 0, false
	}
	return srcVal + uint64(w), true
}

func (SSSP) Better(a, b uint64) bool    { return a < b }
func (SSSP) Combine(a, b uint64) uint64 { return engine.SatAdd(a, b) }

// KernelSpec describes Relax to the engine's fused kernels: gated on
// Unreached, then src + w, smaller wins — exactly the code above. Every
// KernelSpec in this package must stay a transcription of its Relax and
// Better; the engine's width-sweep equivalence tests compare the two
// bit for bit.
func (SSSP) KernelSpec() engine.KernelSpec {
	return engine.KernelSpec{Kind: engine.RelaxAddWeight, Gate: Unreached}
}

// ----------------------------------------------------------------- BFS --

// BFS computes levels in the BFS tree: property = min number of edges on
// any path; ⊕ = saturating +; ⪰ = ≥. It is SSSP with unit weights.
type BFS struct{}

func (BFS) Name() string        { return "BFS" }
func (BFS) InitValue() uint64   { return Unreached }
func (BFS) SourceValue() uint64 { return 0 }

func (BFS) Relax(srcVal uint64, _ graph.Weight) (uint64, bool) {
	if srcVal == Unreached {
		return 0, false
	}
	return srcVal + 1, true
}

func (BFS) Better(a, b uint64) bool    { return a < b }
func (BFS) Combine(a, b uint64) uint64 { return engine.SatAdd(a, b) }

// KernelSpec: gated on Unreached, then src + 1, smaller wins.
func (BFS) KernelSpec() engine.KernelSpec {
	return engine.KernelSpec{Kind: engine.RelaxAddOne, Gate: Unreached}
}

// ---------------------------------------------------------------- SSWP --

// SSWP is single-source widest path: property = max over paths of the
// minimum edge weight; ⊕ = min; ⪰ = ≤ (wider is better).
type SSWP struct{}

func (SSWP) Name() string        { return "SSWP" }
func (SSWP) InitValue() uint64   { return 0 }
func (SSWP) SourceValue() uint64 { return math.MaxUint64 }

func (SSWP) Relax(srcVal uint64, w graph.Weight) (uint64, bool) {
	if srcVal == 0 {
		return 0, false
	}
	if uint64(w) < srcVal {
		return uint64(w), true
	}
	return srcVal, true
}

func (SSWP) Better(a, b uint64) bool { return a > b }

// KernelSpec: gated on 0, then min(src, w), larger wins.
func (SSWP) KernelSpec() engine.KernelSpec {
	return engine.KernelSpec{Kind: engine.RelaxMinWeight, Gate: 0, MaxWins: true}
}

// Combine is min: the width of a concatenated path is the narrower half.
func (SSWP) Combine(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// ---------------------------------------------------------------- SSNP --

// SSNP is single-source narrowest path: property = min over paths of the
// maximum edge weight; ⊕ = max; ⪰ = ≥ (narrower is better). The source's
// empty path has maximum edge weight 0.
type SSNP struct{}

func (SSNP) Name() string        { return "SSNP" }
func (SSNP) InitValue() uint64   { return Unreached }
func (SSNP) SourceValue() uint64 { return 0 }

func (SSNP) Relax(srcVal uint64, w graph.Weight) (uint64, bool) {
	if srcVal == Unreached {
		return 0, false
	}
	if uint64(w) > srcVal {
		return uint64(w), true
	}
	return srcVal, true
}

func (SSNP) Better(a, b uint64) bool { return a < b }

// KernelSpec: gated on Unreached, then max(src, w), smaller wins.
func (SSNP) KernelSpec() engine.KernelSpec {
	return engine.KernelSpec{Kind: engine.RelaxMaxWeight, Gate: Unreached}
}

// Combine is max, with Unreached absorbing.
func (SSNP) Combine(a, b uint64) uint64 {
	if a == Unreached || b == Unreached {
		return Unreached
	}
	if a > b {
		return a
	}
	return b
}

// ------------------------------------------------------------- Viterbi --

// Viterbi computes the maximum-probability path: each edge of weight w
// multiplies the path probability by 1/w (weights ≥ 1, so probabilities
// stay in (0,1]); property = max over paths; ⊕ = ×; ⪰ = ≤.
//
// To keep the triangle inequality *exact* (floating-point products round,
// and a 1-ulp-too-good Δ initialization would poison the incremental
// evaluation), the probability is encoded by its reciprocal: the integer
// product of the edge weights along the path, minimized, with saturating
// multiplication. prob = 1/product (see ViterbiProb); Unreached encodes
// probability 0. Saturation is order-preserving and absorbing, so
// monotonicity and the triangle inequality hold for all values.
type Viterbi struct{}

func (Viterbi) Name() string        { return "Viterbi" }
func (Viterbi) InitValue() uint64   { return Unreached }
func (Viterbi) SourceValue() uint64 { return 1 }

func (Viterbi) Relax(srcVal uint64, w graph.Weight) (uint64, bool) {
	if srcVal == Unreached {
		return 0, false
	}
	return engine.SatMul(srcVal, uint64(w)), true
}

func (Viterbi) Better(a, b uint64) bool    { return a < b }
func (Viterbi) Combine(a, b uint64) uint64 { return engine.SatMul(a, b) }

// KernelSpec: gated on Unreached, then engine.SatMul(src, w), smaller
// wins.
func (Viterbi) KernelSpec() engine.KernelSpec {
	return engine.KernelSpec{Kind: engine.RelaxMulSat, Gate: Unreached}
}

// ViterbiProb decodes an encoded Viterbi value to the path probability.
func ViterbiProb(encoded uint64) float64 {
	if encoded == Unreached {
		return 0
	}
	return 1 / float64(encoded)
}

// ----------------------------------------------------------------- SSR --

// SSR is single-source reachability: property = 1 if a path exists else 0;
// ⊕ = logical AND; ⪰ = ≤ (reached is better).
type SSR struct{}

func (SSR) Name() string        { return "SSR" }
func (SSR) InitValue() uint64   { return 0 }
func (SSR) SourceValue() uint64 { return 1 }

func (SSR) Relax(srcVal uint64, _ graph.Weight) (uint64, bool) {
	if srcVal == 0 {
		return 0, false
	}
	return 1, true
}

func (SSR) Better(a, b uint64) bool    { return a > b }
func (SSR) Combine(a, b uint64) uint64 { return a & b }

// KernelSpec: gated on 0, then the constant 1, larger wins.
func (SSR) KernelSpec() engine.KernelSpec {
	return engine.KernelSpec{Kind: engine.RelaxConst, Gate: 0, MaxWins: true, Const: 1}
}

// --------------------------------------------------------------- Radii --

// Radii estimates the graph radius by running NumRadiiSources SSSP queries
// simultaneously and taking the largest finite distance (§3, Table 1:
// dist1..dist16). It is not itself an engine.Problem — it is a 16-wide
// SSSP evaluation; the triangle inequality applied per slot is the SSSP
// triangle. See package standing for its Δ-based path.
const NumRadiiSources = 16

// RadiiEstimate reduces a 16-wide SSSP state column-set to the radius
// estimate: the maximum finite distance observed in any slot.
func RadiiEstimate(values []uint64, n, k int) uint64 {
	var best uint64
	for v := 0; v < n; v++ {
		for j := 0; j < k; j++ {
			d := values[v*k+j]
			if d != Unreached && d > best {
				best = d
			}
		}
	}
	return best
}

// Registry returns the engine.Problem instances keyed by their Table 1
// names. Radii and SSNSP are composite (multi-round / multi-width) and
// are driven by packages standing and core; their building blocks (SSSP
// and BFS) appear here.
func Registry() map[string]engine.Problem {
	return map[string]engine.Problem{
		"BFS":     BFS{},
		"SSSP":    SSSP{},
		"SSWP":    SSWP{},
		"SSNP":    SSNP{},
		"Viterbi": Viterbi{},
		"SSR":     SSR{},
	}
}

// Names lists the eight benchmark names in the paper's table order.
func Names() []string {
	return []string{"SSSP", "SSWP", "Viterbi", "BFS", "SSNP", "SSR", "Radii", "SSNSP"}
}
