package engine

import (
	"sync/atomic"

	"tripoline/internal/graph"
	"tripoline/internal/parallel"
)

// Violation describes one failed fixpoint check: relaxing src's value
// across the edge to dst would still improve dst.
type Violation struct {
	Src, Dst graph.VertexID
	Slot     int
	Cand     uint64
	Have     uint64
}

// CheckConverged sweeps every edge and reports up to max violations of
// the fixpoint condition (no relaxation can improve any value). A
// converged state returns an empty slice. The tests use it to audit
// standing state after incremental maintenance or trimmed recovery: one
// edge sweep, independent of how the state was produced.
func (st *State) CheckConverged(g ArcView, max int) []Violation {
	if max <= 0 {
		max = 16
	}
	var mu atomic.Int64
	out := make([]Violation, max)
	n := g.NumVertices()
	K := st.K
	p := st.P
	parallel.ForGrain(n, 128, func(v int) {
		if mu.Load() >= int64(max) {
			return
		}
		adj, wgt := g.OutSpan(graph.VertexID(v))
		for j, d := range adj {
			for k := 0; k < K; k++ {
				sv := st.Value(graph.VertexID(v), k)
				cand, ok := p.Relax(sv, wgt[j])
				if !ok {
					continue
				}
				if have := st.Value(d, k); p.Better(cand, have) {
					i := mu.Add(1) - 1
					if int(i) < max {
						out[i] = Violation{
							Src: graph.VertexID(v), Dst: d, Slot: k,
							Cand: cand, Have: have,
						}
					}
				}
			}
		}
	})
	count := mu.Load()
	if count > int64(max) {
		count = int64(max)
	}
	return out[:count]
}
