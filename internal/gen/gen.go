// Package gen generates synthetic graphs and edge streams.
//
// The paper evaluates on four real-world power-law graphs (Orkut,
// Friendster, LiveJournal, Twitter). Those datasets are not available
// here, so this package provides RMAT (recursive-matrix) power-law
// generators whose directedness and relative density match each graph, at
// laptop scale. The experiment harness treats each generated edge list as
// the "full graph", loads a preset fraction, and streams the remainder in
// batches — exactly the methodology of §6.1.
package gen

import (
	"tripoline/internal/graph"
	"tripoline/internal/xrand"
)

// Config describes one synthetic graph.
type Config struct {
	Name      string
	LogN      int     // number of vertices is 1<<LogN
	AvgDegree float64 // edges generated = AvgDegree * N (before dedup)
	Directed  bool
	MaxWeight uint32 // weights are uniform in [1, MaxWeight]
	Seed      uint64
	// RMAT quadrant probabilities; A+B+C+D must be ~1. Zeros select the
	// standard skewed defaults (0.57, 0.19, 0.19, 0.05).
	A, B, C, D float64
}

func (c Config) withDefaults() Config {
	if c.A == 0 && c.B == 0 && c.C == 0 && c.D == 0 {
		c.A, c.B, c.C, c.D = 0.57, 0.19, 0.19, 0.05
	}
	if c.MaxWeight == 0 {
		c.MaxWeight = 64
	}
	return c
}

// N returns the vertex count of the configuration.
func (c Config) N() int { return 1 << c.LogN }

// RMAT generates the edge list for c. Output is deterministic in c.Seed.
// Duplicate arcs may appear (they collapse on load, as in real edge
// streams); self-loops are rewritten to point at the next vertex.
func RMAT(c Config) []graph.Edge {
	c = c.withDefaults()
	n := c.N()
	m := int(c.AvgDegree * float64(n))
	rng := xrand.New(c.Seed)
	edges := make([]graph.Edge, m)
	// Slightly perturb the quadrant probabilities per level ("noise") so
	// the degree distribution is smooth, as in the canonical generator.
	for i := range edges {
		src, dst := 0, 0
		for bit := c.LogN - 1; bit >= 0; bit-- {
			r := rng.Float64()
			a := c.A * (0.95 + 0.1*rng.Float64())
			b := c.B * (0.95 + 0.1*rng.Float64())
			cc := c.C * (0.95 + 0.1*rng.Float64())
			norm := a + b + cc + c.D*(0.95+0.1*rng.Float64())
			a, b, cc = a/norm, b/norm, cc/norm
			switch {
			case r < a:
				// top-left: no bits set
			case r < a+b:
				dst |= 1 << bit
			case r < a+b+cc:
				src |= 1 << bit
			default:
				src |= 1 << bit
				dst |= 1 << bit
			}
		}
		if src == dst {
			dst = (dst + 1) % n
		}
		w := graph.Weight(1 + rng.Uint64()%uint64(c.MaxWeight))
		edges[i] = graph.Edge{Src: graph.VertexID(src), Dst: graph.VertexID(dst), W: w}
	}
	return edges
}

// Uniform generates m uniformly random arcs over n vertices (Erdős–Rényi
// style), for tests that need non-skewed inputs.
func Uniform(n, m int, maxWeight uint32, seed uint64) []graph.Edge {
	rng := xrand.New(seed)
	if maxWeight == 0 {
		maxWeight = 64
	}
	edges := make([]graph.Edge, m)
	for i := range edges {
		s := rng.Intn(n)
		d := rng.Intn(n)
		if d == s {
			d = (d + 1) % n
		}
		edges[i] = graph.Edge{
			Src: graph.VertexID(s), Dst: graph.VertexID(d),
			W: graph.Weight(1 + rng.Uint64()%uint64(maxWeight)),
		}
	}
	return edges
}

// Grid generates a 4-connected rows×cols grid (undirected arcs in both
// directions), useful for tests with known distances.
func Grid(rows, cols int, w graph.Weight) (n int, edges []graph.Edge) {
	n = rows * cols
	id := func(r, c int) graph.VertexID { return graph.VertexID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges,
					graph.Edge{Src: id(r, c), Dst: id(r, c+1), W: w},
					graph.Edge{Src: id(r, c+1), Dst: id(r, c), W: w})
			}
			if r+1 < rows {
				edges = append(edges,
					graph.Edge{Src: id(r, c), Dst: id(r+1, c), W: w},
					graph.Edge{Src: id(r+1, c), Dst: id(r, c), W: w})
			}
		}
	}
	return n, edges
}

// Stream is a shuffled edge stream split into an initially-loaded prefix
// and batches of insertions, per the §6.1 methodology.
type Stream struct {
	N        int
	Directed bool
	Initial  []graph.Edge   // the preset fraction, loaded before queries
	Batches  [][]graph.Edge // remaining edges in insertion batches
}

// MakeStream shuffles edges deterministically and splits them into an
// initial loadFrac portion plus batches of batchSize edges.
func MakeStream(n int, edges []graph.Edge, directed bool, loadFrac float64, batchSize int, seed uint64) Stream {
	shuffled := make([]graph.Edge, len(edges))
	copy(shuffled, edges)
	rng := xrand.New(seed + 0x5151)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	cut := int(loadFrac * float64(len(shuffled)))
	if cut > len(shuffled) {
		cut = len(shuffled)
	}
	s := Stream{N: n, Directed: directed, Initial: shuffled[:cut]}
	rest := shuffled[cut:]
	for len(rest) > 0 {
		k := batchSize
		if k > len(rest) {
			k = len(rest)
		}
		s.Batches = append(s.Batches, rest[:k])
		rest = rest[k:]
	}
	return s
}

// Standard returns the four stand-in graph configurations used throughout
// the evaluation, scaled by scale (scale 0 or 1 = defaults; 2 doubles LogN
// growth by one, etc.). The directedness and relative average degrees
// mirror Table 2: OR dense undirected, FR large undirected, LJ sparse
// directed, TW dense directed.
func Standard(scale int) []Config {
	if scale < 1 {
		scale = 1
	}
	bump := scale - 1
	return []Config{
		{Name: "OR-sim", LogN: 13 + bump, AvgDegree: 38, Directed: false, Seed: 0xA110C8ED},
		{Name: "FR-sim", LogN: 15 + bump, AvgDegree: 15, Directed: false, Seed: 0xBEEFCAFE},
		{Name: "LJ-sim", LogN: 13 + bump, AvgDegree: 8, Directed: true, Seed: 0xC0FFEE11},
		{Name: "TW-sim", LogN: 14 + bump, AvgDegree: 18, Directed: true, Seed: 0xDEADBEA7},
	}
}

// ByName returns the standard configuration with the given name.
func ByName(name string, scale int) (Config, bool) {
	for _, c := range Standard(scale) {
		if c.Name == name {
			return c, true
		}
	}
	return Config{}, false
}

// SampleSources draws count distinct non-trivial user-query sources of g —
// vertices of out-degree > 2, per §6.1 — by rejection from the generator
// seeded with seed, giving up after 50·count+1000 draws. The draw depends
// on the seed and g's degrees alone.
func SampleSources(g interface {
	NumVertices() int
	Degree(v graph.VertexID) int
}, count int, seed uint64) []graph.VertexID {
	rng := xrand.New(seed)
	seen := map[graph.VertexID]bool{}
	out := make([]graph.VertexID, 0, count)
	for attempts := 0; len(out) < count && attempts < 50*count+1000; attempts++ {
		v := graph.VertexID(rng.Intn(g.NumVertices()))
		if seen[v] || g.Degree(v) <= 2 {
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	return out
}
