package parallel

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, DefaultGrain - 1, DefaultGrain, DefaultGrain + 1, 10_000} {
		hits := make([]atomic.Int32, max(n, 1))
		For(n, func(i int) { hits[i].Add(1) })
		for i := 0; i < n; i++ {
			if hits[i].Load() != 1 {
				t.Fatalf("n=%d: index %d hit %d times", n, i, hits[i].Load())
			}
		}
	}
}

func TestForGrainSmallGrain(t *testing.T) {
	const n = 1000
	var sum atomic.Int64
	ForGrain(n, 1, func(i int) { sum.Add(int64(i)) })
	if want := int64(n * (n - 1) / 2); sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
}

func TestForGrainNonPositiveGrain(t *testing.T) {
	var count atomic.Int64
	ForGrain(10, 0, func(i int) { count.Add(1) })
	if count.Load() != 10 {
		t.Fatalf("count = %d", count.Load())
	}
}

func TestForRangeCoversDisjointRanges(t *testing.T) {
	const n = 5000
	hits := make([]atomic.Int32, n)
	ForRange(n, 128, func(start, end int) {
		if start < 0 || end > n || start >= end {
			t.Errorf("bad range [%d,%d)", start, end)
		}
		for i := start; i < end; i++ {
			hits[i].Add(1)
		}
	})
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("index %d hit %d times", i, hits[i].Load())
		}
	}
}

func TestMaxInt64(t *testing.T) {
	vals := []int64{3, -7, 42, 0, 41}
	got := MaxInt64(len(vals), -1, func(i int) int64 { return vals[i] })
	if got != 42 {
		t.Fatalf("MaxInt64 = %d", got)
	}
	if MaxInt64(0, -5, nil) != -5 {
		t.Fatal("MaxInt64 empty default wrong")
	}
}

func TestMaxInt64AllNegative(t *testing.T) {
	// Regression: the max of all-negative inputs must win over a larger
	// default — def only applies to n==0 — both below the parallel
	// cutoff (n < grain) and above it.
	for _, n := range []int{1, 3, DefaultGrain - 1, DefaultGrain, 4 * DefaultGrain, 10_000} {
		got := MaxInt64(n, 0, func(i int) int64 { return -int64(i) - 1 })
		if got != -1 {
			t.Fatalf("n=%d: MaxInt64 = %d, want -1", n, got)
		}
	}
}

func TestForRangeIDCoversAllAndBoundsWorkers(t *testing.T) {
	const n = 5000
	hits := make([]atomic.Int32, n)
	maxW := MaxWorkers()
	ForRangeID(n, 64, func(w, start, end int) {
		if w < 0 || w >= maxW {
			t.Errorf("worker id %d out of [0,%d)", w, maxW)
		}
		for i := start; i < end; i++ {
			hits[i].Add(1)
		}
	})
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("index %d hit %d times", i, hits[i].Load())
		}
	}
	// Per-worker slots accumulate without atomics.
	locals := make([]pad64, maxW)
	ForRangeID(n, 64, func(w, start, end int) {
		for i := start; i < end; i++ {
			locals[w].i += int64(i)
		}
	})
	var sum int64
	for w := range locals {
		sum += locals[w].i
	}
	if want := int64(n) * (n - 1) / 2; sum != want {
		t.Fatalf("per-worker sum = %d, want %d", sum, want)
	}
}

func TestMaxInt64Quick(t *testing.T) {
	f := func(vals []int64) bool {
		if len(vals) == 0 {
			return true
		}
		want := vals[0]
		for _, v := range vals {
			if v > want {
				want = v
			}
		}
		return MaxInt64(len(vals), 0, func(i int) int64 { return vals[i] }) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
