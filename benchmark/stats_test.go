package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.9, 46}, {1, 50},
	} {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 50 {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of an empty sample should be NaN")
	}
}

func TestReduceRounds(t *testing.T) {
	r := reduceRounds([]float64{10, 12, 11, 15, 9})
	if !near(r.value, 11) {
		t.Errorf("value = %v, want the median 11", r.value)
	}
	if !near(r.spread, 6.0/11) {
		t.Errorf("spread = %v, want (15-9)/11", r.spread)
	}
	if r := reduceRounds([]float64{7}); r.value != 7 || r.spread != 0 {
		t.Errorf("single round reduced to %+v", r)
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4), the
// function the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 9, 3, 7}, [3]float64{2, 5, 8}},
		{[]float64{2, 4}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 12, 11, 15, 9, 10.5, 13}, [3]float64{10, 11, 13}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if got := relIQR([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("relIQR = %v, want 1", got)
	}
}

func TestRatio(t *testing.T) {
	if ratio(0, 0) != 0 || ratio(3, 0) != 0 || !near(ratio(1, 4), 0.25) {
		t.Error("ratio")
	}
}
