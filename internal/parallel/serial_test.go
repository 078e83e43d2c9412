package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// withProcs runs f under a temporary GOMAXPROCS setting, exercising the
// serial fast paths that never trigger on multi-core test machines.
func withProcs(t *testing.T, procs int, f func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(old)
	f()
}

func TestForSerialPath(t *testing.T) {
	withProcs(t, 1, func() {
		const n = 3 * DefaultGrain
		hits := make([]int, n)
		For(n, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("index %d hit %d times", i, h)
			}
		}
	})
}

func TestForRangeSerialPath(t *testing.T) {
	withProcs(t, 1, func() {
		called := 0
		ForRange(1000, 100, func(start, end int) {
			called++
			if start != 0 || end != 1000 {
				t.Fatalf("serial ForRange split: [%d,%d)", start, end)
			}
		})
		if called != 1 {
			t.Fatalf("serial ForRange called %d times", called)
		}
	})
}

func TestSmallInputsTakeSerialPath(t *testing.T) {
	// Inputs at or below the grain must not spawn goroutines; observable
	// only behaviorally: results are correct and body runs exactly once
	// per index even for n == grain.
	var count atomic.Int64
	ForGrain(DefaultGrain, DefaultGrain, func(i int) { count.Add(1) })
	if count.Load() != DefaultGrain {
		t.Fatalf("count=%d", count.Load())
	}
}

func TestForNegativeAndZero(t *testing.T) {
	ran := false
	For(0, func(int) { ran = true })
	For(-5, func(int) { ran = true })
	ForRange(0, 10, func(int, int) { ran = true })
	ForRange(-1, 0, func(int, int) { ran = true })
	if ran {
		t.Fatal("body ran for non-positive n")
	}
	if MaxInt64(0, 7, nil) != 7 || MaxInt64(-1, 7, nil) != 7 {
		t.Fatal("empty max is not the default")
	}
}

func TestMaxInt64SerialAndParallelAgree(t *testing.T) {
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = int64((i * 2654435761) % 100000)
	}
	f := func(i int) int64 { return vals[i] }
	par := MaxInt64(len(vals), 0, f)
	var ser int64
	withProcs(t, 1, func() { ser = MaxInt64(len(vals), 0, f) })
	if par != ser {
		t.Fatalf("parallel max %d != serial max %d", par, ser)
	}
}

// The tests below force GOMAXPROCS=4 so the goroutine worker-pool paths
// execute even on single-core machines (GOMAXPROCS may exceed NumCPU).

func TestForParallelPath(t *testing.T) {
	withProcs(t, 4, func() {
		const n = 10_000
		hits := make([]atomic.Int32, n)
		For(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("index %d hit %d times", i, hits[i].Load())
			}
		}
	})
}

func TestForGrainParallelPath(t *testing.T) {
	withProcs(t, 4, func() {
		const n = 5000
		var sum atomic.Int64
		ForGrain(n, 16, func(i int) { sum.Add(int64(i)) })
		if want := int64(n) * (n - 1) / 2; sum.Load() != want {
			t.Fatalf("sum=%d want %d", sum.Load(), want)
		}
	})
}

func TestForRangeParallelPath(t *testing.T) {
	withProcs(t, 4, func() {
		const n = 5000
		hits := make([]atomic.Int32, n)
		ForRange(n, 64, func(start, end int) {
			for i := start; i < end; i++ {
				hits[i].Add(1)
			}
		})
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("index %d hit %d times", i, hits[i].Load())
			}
		}
	})
}

func TestForParallelFewerWorkersThanProcs(t *testing.T) {
	withProcs(t, 4, func() {
		// Two chunks of work with four procs: the worker clamp path.
		var count atomic.Int64
		ForGrain(DefaultGrain+1, DefaultGrain, func(i int) { count.Add(1) })
		if count.Load() != DefaultGrain+1 {
			t.Fatalf("count=%d", count.Load())
		}
	})
}

func TestSumsParallelPath(t *testing.T) {
	withProcs(t, 4, func() {
		const n = 10_000
		want := int64(n - 1)
		if got := MaxInt64(n, 0, func(i int) int64 { return int64(i) }); got != want {
			t.Fatalf("MaxInt64 parallel = %d", got)
		}
	})
}
