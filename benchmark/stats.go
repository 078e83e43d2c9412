package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks (the "inclusive" definition:
// q=0 is the minimum, q=1 the maximum). xs is not modified. An empty
// sample has no quantile and yields NaN, which the caller reports as a
// failed run rather than as a number.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

// ratio is a/b with 0/0 = 0: the count ratios (cache hits per query,
// frames dropped per frame) are legitimately zero on workloads that
// never exercise the mechanism.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spread is the round spread the protocol prints beside every metric:
// (max − min) / median over the per-round values.
func spread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return ratio(hi-lo, math.Abs(median(xs)))
}

// reduced is one end-to-end metric after the protocol's reduction: the
// median of the per-round values as measured, the spread of those
// values, and the reported value — the median in reference-machine units.
type reduced struct {
	value    float64
	measured float64
	spread   float64
	rounds   []float64 // as measured
}

func reduceRounds(perRound []float64) reduced {
	m := median(perRound)
	return reduced{value: m, measured: m, spread: spread(perRound), rounds: perRound}
}

// onReferenceMachine restates the metric for a machine running at the
// reference speed, given the speed (reference = 1) this run's machine ran
// at: a time measured on a slower machine shrinks, a rate grows.
func (r reduced) onReferenceMachine(kind metricKind, speed float64) reduced {
	switch kind {
	case aTime:
		r.value = r.measured * speed
	case aRate:
		r.value = r.measured / speed
	}
	return r
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method the acceptance check uses): for sorted data the
// i-th cut point sits at position i·(n+1)/4, one-based, clamped to the
// sample.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// relIQR is the acceptance check's spread: (Q3 − Q1) / median.
func relIQR(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(xs)
	return ratio(q3-q1, math.Abs(median(xs)))
}
