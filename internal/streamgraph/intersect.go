package streamgraph

import (
	"tripoline/internal/graph"
)

// CommonNeighbors returns the vertices adjacent to both u and v (by
// out-edges), in ascending order — the "overlap of friends of two
// specific users" query the paper's introduction cites as a motivating
// vertex-specific workload. The merge walks both sorted spans once.
func (s *Snapshot) CommonNeighbors(u, v graph.VertexID) []graph.VertexID {
	au, _ := s.flat.OutSpan(u)
	av, _ := s.flat.OutSpan(v)
	var out []graph.VertexID
	i, j := 0, 0
	for i < len(au) && j < len(av) {
		switch {
		case au[i] < av[j]:
			i++
		case au[i] > av[j]:
			j++
		default:
			out = append(out, au[i])
			i++
			j++
		}
	}
	return out
}

// CountTrianglesAt returns the number of triangles incident on v (pairs
// of v's neighbors that are themselves adjacent), a building block for
// local clustering coefficients on the streaming graph.
func (s *Snapshot) CountTrianglesAt(v graph.VertexID) int {
	adj, _ := s.flat.OutSpan(v)
	count := 0
	for _, u := range adj {
		if u == v {
			continue
		}
		// For each neighbor u, count neighbors of v that u also links to,
		// restricted to w > u to count each triangle once.
		for _, w := range adj {
			if w <= u || w == v {
				continue
			}
			if _, ok := s.HasEdge(u, w); ok {
				count++
			}
		}
	}
	return count
}

// ClusteringCoefficient returns the local clustering coefficient of v:
// triangles at v divided by the number of neighbor pairs. Vertices with
// fewer than two neighbors report 0.
func (s *Snapshot) ClusteringCoefficient(v graph.VertexID) float64 {
	d := s.Degree(v)
	if d < 2 {
		return 0
	}
	pairs := d * (d - 1) / 2
	return float64(s.CountTrianglesAt(v)) / float64(pairs)
}
