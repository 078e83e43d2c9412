// Package parallel provides the shared-memory parallel runtime used by the
// Tripoline engine: a chunked dynamically-scheduled parallel-for, parallel
// reductions, and atomic helpers for monotonic value updates.
//
// The scheduler is intentionally simple: a fixed worker pool pulls
// fixed-size chunks of the iteration space from an atomic counter. For the
// irregular workloads of graph processing (frontier expansion with highly
// skewed per-vertex work) this dynamic chunking recovers most of the load
// balance that a work-stealing runtime such as Cilk would provide, without
// any dependency beyond the standard library.
package parallel

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultGrain is the number of iterations a worker claims at a time when
// the caller does not specify a grain size. It trades scheduling overhead
// against load balance; graph kernels are insensitive to the exact value
// within a factor of four.
const DefaultGrain = 256

// BlockGrain is the ForRange grain of the plain per-word passes over O(N)
// arrays (fills, column copies, Δ-initialization): a block is a plain
// loop with no call per word, so it can be long enough to make the
// scheduling cost vanish and still leave every worker several blocks.
const BlockGrain = 4096

// maxProcs returns the degree of parallelism to use.
func maxProcs() int {
	p := runtime.GOMAXPROCS(0)
	if p < 1 {
		p = 1
	}
	return p
}

// For runs body(i) for every i in [0, n) using all available processors.
// Iterations are claimed in chunks of DefaultGrain. body must be safe to
// call concurrently for distinct i.
func For(n int, body func(i int)) {
	ForGrain(n, DefaultGrain, body)
}

// ForGrain is For with an explicit grain (chunk) size.
func ForGrain(n, grain int, body func(i int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	p := maxProcs()
	// Serial cutoff: spawning goroutines for tiny loops costs more than
	// the loop itself.
	if p == 1 || n <= grain {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	workers := p
	if w := (n + grain - 1) / grain; w < workers {
		workers = w
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				start := int(next.Add(int64(grain))) - grain
				if start >= n {
					return
				}
				end := start + grain
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					body(i)
				}
			}
		}()
	}
	wg.Wait()
}

// ForRange runs body(start, end) over disjoint subranges covering [0, n).
// It is the blocked variant of For for kernels that amortize per-call work
// across a whole chunk (e.g. flushing a local buffer once per chunk).
func ForRange(n, grain int, body func(start, end int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	p := maxProcs()
	if p == 1 || n <= grain {
		body(0, n)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	workers := p
	if w := (n + grain - 1) / grain; w < workers {
		workers = w
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				start := int(next.Add(int64(grain))) - grain
				if start >= n {
					return
				}
				end := start + grain
				if end > n {
					end = n
				}
				body(start, end)
			}
		}()
	}
	wg.Wait()
}

// Workers returns the number of workers For would use for n iterations.
func Workers(n int) int {
	p := maxProcs()
	if w := (n + DefaultGrain - 1) / DefaultGrain; w < p {
		return w
	}
	return p
}

// MaxWorkers returns the upper bound on the worker index ForRangeID may
// pass to its body — callers size per-worker accumulator arrays with it.
func MaxWorkers() int { return maxProcs() }

// ForRangeID is ForRange with a stable worker index: body(worker, start,
// end) runs chunks like ForRange, with worker < MaxWorkers() identifying
// the executing goroutine. Two invocations with the same worker index
// never run concurrently, so per-worker accumulators need no atomics —
// the reduction pattern the engine's hot loops use instead of per-chunk
// atomic adds.
func ForRangeID(n, grain int, body func(worker, start, end int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	p := maxProcs()
	if p == 1 || n <= grain {
		body(0, 0, n)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	workers := p
	if w := (n + grain - 1) / grain; w < workers {
		workers = w
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(id int) {
			defer wg.Done()
			for {
				start := int(next.Add(int64(grain))) - grain
				if start >= n {
					return
				}
				end := start + grain
				if end > n {
					end = n
				}
				body(id, start, end)
			}
		}(w)
	}
	wg.Wait()
}

// SumInt64 computes sum over i in [0,n) of f(i) in parallel.
func SumInt64(n int, f func(i int) int64) int64 {
	if n <= 0 {
		return 0
	}
	p := maxProcs()
	if p == 1 || n <= DefaultGrain {
		var s int64
		for i := 0; i < n; i++ {
			s += f(i)
		}
		return s
	}
	var total atomic.Int64
	ForRange(n, DefaultGrain, func(start, end int) {
		var local int64
		for i := start; i < end; i++ {
			local += f(i)
		}
		total.Add(local)
	})
	return total.Load()
}

// pad64 pads a per-worker accumulator slot out to a cache line so
// neighboring workers do not false-share.
type pad64 struct {
	f float64
	i int64
	_ [6]int64
}

// SumFloat64 computes sum over i in [0,n) of f(i) in parallel using
// per-worker partial sums merged once at the end — no locks on the hot
// path. The reduction order is nondeterministic; callers that need
// bitwise reproducibility should reduce serially.
func SumFloat64(n int, f func(i int) float64) float64 {
	if n <= 0 {
		return 0
	}
	p := maxProcs()
	if p == 1 || n <= DefaultGrain {
		var s float64
		for i := 0; i < n; i++ {
			s += f(i)
		}
		return s
	}
	locals := make([]pad64, MaxWorkers())
	ForRangeID(n, DefaultGrain, func(w, start, end int) {
		var local float64
		for i := start; i < end; i++ {
			local += f(i)
		}
		locals[w].f += local
	})
	var total float64
	for i := range locals {
		total += locals[i].f
	}
	return total
}

// MaxInt64 computes the maximum of f(i) over [0,n); it returns def for
// n==0 only — for n>0 the result is the true maximum even when every
// f(i) is below def. Per-worker partial maxima are seeded with the first
// value of each worker's first chunk and merged once at the end.
func MaxInt64(n int, def int64, f func(i int) int64) int64 {
	if n <= 0 {
		return def
	}
	locals := make([]pad64, MaxWorkers())
	for w := range locals {
		locals[w].i = math.MinInt64 // identity for max
	}
	ForRangeID(n, DefaultGrain, func(w, start, end int) {
		local := f(start)
		for i := start + 1; i < end; i++ {
			if v := f(i); v > local {
				local = v
			}
		}
		if local > locals[w].i {
			locals[w].i = local
		}
	})
	best := locals[0].i
	for w := 1; w < len(locals); w++ {
		if locals[w].i > best {
			best = locals[w].i
		}
	}
	return best
}

// CASMinUint64 atomically lowers *addr to v under less and reports whether
// the stored value changed. less defines a strict total order on encoded
// values ("a is better than b"). The loop is the monotonic update primitive
// required by Tripoline's async-safe vertex functions.
func CASMinUint64(addr *atomic.Uint64, v uint64, less func(a, b uint64) bool) bool {
	for {
		old := addr.Load()
		if !less(v, old) {
			return false
		}
		if addr.CompareAndSwap(old, v) {
			return true
		}
	}
}

// AddUint64 atomically adds delta to *addr and returns the new value.
func AddUint64(addr *atomic.Uint64, delta uint64) uint64 {
	return addr.Add(delta)
}
