// Package graph defines the basic graph vocabulary shared by the whole
// system — vertex IDs, weighted edges — and a static CSR (compressed sparse
// row) representation used for baselines, oracles, and the initial bulk
// load of the streaming engine.
package graph

import (
	"fmt"
	"sort"

	"tripoline/internal/parallel"
)

// VertexID identifies a vertex. IDs are dense: a graph with n vertices uses
// IDs 0..n-1.
type VertexID = uint32

// Weight is an edge weight. All problems in the paper use positive
// integer-valued weights; weight 1 must be common for the Viterbi equality
// effect discussed in §6.2 of the paper to appear.
type Weight = uint32

// Edge is one directed, weighted edge. Undirected graphs store each edge in
// both directions.
type Edge struct {
	Src, Dst VertexID
	W        Weight
}

// CSR is an immutable compressed-sparse-row graph: the out-neighbors of
// vertex v are Adj[Off[v]:Off[v+1]], with weights in Wgt at the same
// positions. Adjacency lists are sorted by destination.
type CSR struct {
	Off      []int64
	Adj      []VertexID
	Wgt      []Weight
	N        int  // vertices
	Directed bool // whether the logical graph is directed
}

// NumEdges returns the number of stored directed arcs.
func (g *CSR) NumEdges() int64 { return int64(len(g.Adj)) }

// NumVertices returns the number of vertices.
func (g *CSR) NumVertices() int { return g.N }

// Degree returns the out-degree of v.
func (g *CSR) Degree(v VertexID) int {
	return int(g.Off[v+1] - g.Off[v])
}

// OutSpan returns the sorted out-neighbor and weight slices of v (the
// engine's ArcView interface). The slices alias the graph and must not be
// modified.
func (g *CSR) OutSpan(v VertexID) ([]VertexID, []Weight) {
	lo, hi := g.Off[v], g.Off[v+1]
	return g.Adj[lo:hi], g.Wgt[lo:hi]
}

// FromEdges builds a CSR over n vertices from an edge list. Parallel edges
// collapse to the first occurrence (the same first-wins rule the streaming
// engine applies to its grow-only edge stream, so static and streamed
// loads of one edge list agree exactly); self-loops are kept (harmless for
// every problem here). If directed is false the reverse arc of every edge
// is added automatically.
func FromEdges(n int, edges []Edge, directed bool) *CSR {
	arcs := edges
	if !directed {
		arcs = make([]Edge, 0, 2*len(edges))
		for _, e := range edges {
			arcs = append(arcs, e, Edge{Src: e.Dst, Dst: e.Src, W: e.W})
		}
	}
	deg := make([]int64, n+1)
	for _, e := range arcs {
		deg[e.Src+1]++
	}
	for i := 0; i < n; i++ {
		deg[i+1] += deg[i]
	}
	adj := make([]VertexID, len(arcs))
	wgt := make([]Weight, len(arcs))
	fill := make([]int64, n)
	for _, e := range arcs {
		p := deg[e.Src] + fill[e.Src]
		adj[p] = e.Dst
		wgt[p] = e.W
		fill[e.Src]++
	}
	g := &CSR{Off: deg, Adj: adj, Wgt: wgt, N: n, Directed: directed}
	g.sortAndDedup()
	return g
}

// sortAndDedup sorts every adjacency list by destination and removes
// parallel edges (keeping the first weight written).
func (g *CSR) sortAndDedup() {
	type row struct {
		adj []VertexID
		wgt []Weight
	}
	rows := make([]row, g.N)
	parallel.For(g.N, func(v int) {
		lo, hi := g.Off[v], g.Off[v+1]
		adj, wgt := g.Adj[lo:hi], g.Wgt[lo:hi]
		idx := make([]int, len(adj))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			if adj[idx[a]] != adj[idx[b]] {
				return adj[idx[a]] < adj[idx[b]]
			}
			return idx[a] < idx[b] // stable: earliest duplicate kept below
		})
		na := make([]VertexID, 0, len(adj))
		nw := make([]Weight, 0, len(adj))
		for _, i := range idx {
			if len(na) > 0 && na[len(na)-1] == adj[i] {
				continue // first duplicate wins
			}
			na = append(na, adj[i])
			nw = append(nw, wgt[i])
		}
		rows[v] = row{na, nw}
	})
	off := make([]int64, g.N+1)
	for v := 0; v < g.N; v++ {
		off[v+1] = off[v] + int64(len(rows[v].adj))
	}
	adj := make([]VertexID, off[g.N])
	wgt := make([]Weight, off[g.N])
	parallel.For(g.N, func(v int) {
		copy(adj[off[v]:], rows[v].adj)
		copy(wgt[off[v]:], rows[v].wgt)
	})
	g.Off, g.Adj, g.Wgt = off, adj, wgt
}

// Transpose returns the graph with every arc reversed. For undirected
// graphs the transpose equals the original (arcs are already symmetric).
func (g *CSR) Transpose() *CSR {
	edges := make([]Edge, 0, len(g.Adj))
	for v := 0; v < g.N; v++ {
		adj, wgt := g.OutSpan(VertexID(v))
		for i, d := range adj {
			edges = append(edges, Edge{Src: d, Dst: VertexID(v), W: wgt[i]})
		}
	}
	return FromEdges(g.N, edges, true)
}

// ReversedArcs returns a new list holding every arc of arcs reversed,
// sorted by source. The sort is stable, so when arcs are sorted by source
// the result is sorted by destination within each source too: the arcs as
// the transposed graph stores them.
func ReversedArcs(arcs []Edge) []Edge {
	out := make([]Edge, len(arcs))
	for i, a := range arcs {
		out[i] = Edge{Src: a.Dst, Dst: a.Src, W: a.W}
	}
	out, _ = radixSort(out, nil, false)
	return out
}

// SortArcs sorts arcs by source, then by destination. The sort is stable:
// arcs that share both keep their order.
func SortArcs(arcs []Edge) {
	out, buf := radixSort(arcs, nil, true)
	out, _ = radixSort(out, buf, false)
	if len(out) > 0 && &out[0] != &arcs[0] {
		copy(arcs, out)
	}
}

// radixSort sorts arcs stably by destination (byDst) or by source: an LSD
// radix sort over three digits of a 32-bit ID, 11, 11 and 10 bits wide,
// whose counts are all taken in one read of the arcs; a pass whose digit
// is the same for every arc changes nothing and is skipped, so IDs below
// 2^22 take two passes. buf, if not nil, is scratch of len(arcs). It
// returns the sorted list, which is arcs or the scratch, and the other
// one.
func radixSort(arcs, buf []Edge, byDst bool) (sorted, scratch []Edge) {
	const (
		digit   = 11
		buckets = 1 << digit
		mask    = buckets - 1
	)
	if len(arcs) < 2 {
		return arcs, buf
	}
	var counts [3][buckets]int
	for _, a := range arcs {
		k := a.Src
		if byDst {
			k = a.Dst
		}
		counts[0][k&mask]++
		counts[1][k>>digit&mask]++
		counts[2][k>>(2*digit)]++
	}
	first := arcs[0].Src
	if byDst {
		first = arcs[0].Dst
	}
	for p := range counts {
		shift := uint(p * digit)
		count := &counts[p]
		if count[first>>shift&mask] == len(arcs) {
			continue
		}
		at := 0
		for d, c := range count {
			count[d] = at
			at += c
		}
		if buf == nil {
			buf = make([]Edge, len(arcs))
		}
		if byDst {
			for _, a := range arcs {
				d := a.Dst >> shift & mask
				buf[count[d]] = a
				count[d]++
			}
		} else {
			for _, a := range arcs {
				d := a.Src >> shift & mask
				buf[count[d]] = a
				count[d]++
			}
		}
		arcs, buf = buf, arcs
	}
	return arcs, buf
}

// Stats summarizes a graph for Table 2-style reporting.
type Stats struct {
	Name         string
	Directed     bool
	N            int
	M            int64 // stored arcs
	AvgOutDegree float64
	MaxOutDegree int
}

// Statistics computes summary statistics of g.
func (g *CSR) Statistics(name string) Stats {
	maxDeg := int(parallel.MaxInt64(g.N, 0, func(v int) int64 {
		return int64(g.Degree(VertexID(v)))
	}))
	return Stats{
		Name:         name,
		Directed:     g.Directed,
		N:            g.N,
		M:            g.NumEdges(),
		AvgOutDegree: float64(g.NumEdges()) / float64(max(1, g.N)),
		MaxOutDegree: maxDeg,
	}
}

func (s Stats) String() string {
	kind := "undirected"
	if s.Directed {
		kind = "directed"
	}
	return fmt.Sprintf("%-14s %-10s |V|=%-9d |E|=%-10d avg-out=%.1f max-out=%d",
		s.Name, kind, s.N, s.M, s.AvgOutDegree, s.MaxOutDegree)
}
