package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// The reference sweep is the benchmark's yardstick for how fast the
// machine is running right now. The reference VM is two cores of a
// shared host whose speed moves by 10-30 % for minutes at a time (see
// README, "Machine speed"), the same for every commit measured on it, so
// a time compared across runs says more about the hour than about the
// code. Every run therefore interleaves its ops with a fixed piece of
// work of the benchmark's own — a read-only relaxation sweep over a
// synthetic edge list, shaped like the engine's kernels (streamed edges,
// random reads into a per-vertex array, chunks claimed by two goroutines)
// but sharing no code with the system — and reports its times in
// reference-machine units: measured × refNominalMs ÷ what the sweep took
// around that moment. Code that gets slower still reads slower; a
// machine that gets slower does not.
const (
	refVertices = 1 << 18
	refEdges    = 1 << 20
	refChunk    = 4096
	// refNominalMs is what one sweep takes on the reference machine in
	// calm weather: the definition of a reference-machine millisecond.
	refNominalMs = 3.5
	// refQuantile is the quantile of a run's sweep times taken as the
	// machine's speed during the run. Sweeps are disturbed upwards only
	// (a collector cycle left over from the previous op, a scheduler
	// hiccup), so a low quantile is the clean reading; the lower quartile
	// rather than the minimum, so a few lucky sweeps do not set it.
	refQuantile = 0.25
)

type refEdge struct{ src, dst, w uint32 }

type reference struct {
	edges []refEdge
	vals  []uint64
	sink  atomic.Uint64 // keeps the sweep's result observable
}

func newReference() *reference {
	r := &reference{edges: make([]refEdge, refEdges), vals: make([]uint64, refVertices)}
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { // xorshift64: the data only has to be scattered
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range r.vals {
		r.vals[i] = next() >> 40
	}
	for i := range r.edges {
		v := next()
		r.edges[i] = refEdge{src: uint32(v) % refVertices, dst: uint32(v>>32) % refVertices, w: uint32(v>>20) & 63}
	}
	return r
}

// sweep performs the reference work once and returns how long it took,
// in milliseconds.
func (r *reference) sweep() float64 {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < pinnedProcs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sum uint64
			for {
				lo := int(next.Add(refChunk)) - refChunk
				if lo >= len(r.edges) {
					break
				}
				for _, e := range r.edges[lo:min(lo+refChunk, len(r.edges))] {
					if v := r.vals[e.src] + uint64(e.w); v < r.vals[e.dst] {
						sum += v
					}
				}
			}
			r.sink.Add(sum)
		}()
	}
	wg.Wait()
	return float64(time.Since(start).Nanoseconds()) / 1e6
}
