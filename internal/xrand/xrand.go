// Package xrand provides a small, fast, deterministic pseudo-random number
// generator (splitmix64) used everywhere Tripoline needs reproducible
// randomness: graph generation, edge-stream shuffling and query sampling.
//
// Determinism matters for this codebase: every experiment in EXPERIMENTS.md
// must be reproducible bit-for-bit from a seed.
package xrand

// RNG is a splitmix64 generator. The zero value is a valid generator with
// seed 0, but callers normally use New to mix the seed first.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed. Distinct seeds yield
// statistically independent streams for the purposes of this project.
func New(seed uint64) *RNG {
	r := &RNG{state: seed}
	// Warm the state so that small seeds do not produce small first outputs.
	r.Uint64()
	return r
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint32 returns the next 32 random bits.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63 returns a non-negative int64.
func (r *RNG) Int63() int64 { return int64(r.Uint64() >> 1) }

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n) as a slice.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts permutes p in place (Fisher–Yates).
func (r *RNG) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle permutes n elements in place using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Split returns a new generator whose stream is independent of r's
// continued use. It is the cheap way to hand deterministic sub-streams to
// parallel workers.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}

// Hash64 mixes x through the splitmix64 finalizer. It is a stateless
// utility for deterministic hashing (e.g. treap priorities keyed by
// vertex ID).
func Hash64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
