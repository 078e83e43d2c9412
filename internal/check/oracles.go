package check

import (
	"fmt"
	"math"

	"tripoline/internal/graph"
	"tripoline/internal/oracle"
	"tripoline/internal/streamgraph"
)

// oracleSet memoizes the from-scratch oracle answers per published
// version: the snapshot pinned at each op boundary, the CSR materialized
// from the C-tree (never from a flat mirror — a corrupted mirror cannot
// fool an oracle that never reads it), and the per-problem sequential
// recomputations. Shared by the replay checker and the serving checker,
// which verify different observables (query results vs. cached/pushed
// serving state) against the same ground truth.
type oracleSet struct {
	g *streamgraph.Graph
	// versions records every published version in order; Op.VerIdx
	// indexes this list.
	versions []uint64
	snaps    map[uint64]*streamgraph.Snapshot
	csrs     map[uint64]*graph.CSR
	pr       map[uint64][]float64
	cc       map[uint64][]uint64
	ssnsp    map[[2]uint64][2][]uint64
}

func newOracleSet(g *streamgraph.Graph) *oracleSet {
	return &oracleSet{
		g:     g,
		snaps: make(map[uint64]*streamgraph.Snapshot),
		csrs:  make(map[uint64]*graph.CSR),
		pr:    make(map[uint64][]float64),
		cc:    make(map[uint64][]uint64),
		ssnsp: make(map[[2]uint64][2][]uint64),
	}
}

// record pins the current snapshot so the oracle can materialize this
// version later. Called at every op boundary that may have published.
func (o *oracleSet) record() {
	snap := o.g.Acquire()
	o.snaps[snap.Version()] = snap
	o.versions = append(o.versions, snap.Version())
}

func (o *oracleSet) csrAt(ver uint64) *graph.CSR {
	if c, ok := o.csrs[ver]; ok {
		return c
	}
	snap, ok := o.snaps[ver]
	if !ok {
		return nil
	}
	c := snap.CSR(false)
	o.csrs[ver] = c
	return c
}

func (o *oracleSet) prAt(ver uint64) []float64 {
	if v, ok := o.pr[ver]; ok {
		return v
	}
	v := oracle.PageRank(o.csrAt(ver), 0.85, 100, 1e-9)
	o.pr[ver] = v
	return v
}

func (o *oracleSet) ccAt(ver uint64) []uint64 {
	if v, ok := o.cc[ver]; ok {
		return v
	}
	v := oracle.Components(o.csrAt(ver))
	o.cc[ver] = v
	return v
}

func (o *oracleSet) ssnspAt(ver uint64, src graph.VertexID) [2][]uint64 {
	key := [2]uint64{ver, uint64(src)}
	if v, ok := o.ssnsp[key]; ok {
		return v
	}
	levels, counts := oracle.CountShortestPaths(o.csrAt(ver), src)
	v := [2][]uint64{levels, counts}
	o.ssnsp[key] = v
	return v
}

// verifyAt compares one answer for (problem, src) against the
// from-scratch oracle at the version it reports, returning "" on
// agreement or a one-line reason on the first difference. counts is
// consulted only for SSNSP; BFS is its level half.
func (o *oracleSet) verifyAt(problem string, src graph.VertexID, version uint64, values, counts []uint64) string {
	csr := o.csrAt(version)
	if csr == nil {
		return "result version not tracked"
	}
	if len(values) != csr.N {
		return fmt.Sprintf("%d values for %d vertices", len(values), csr.N)
	}
	switch problem {
	case "SSNSP", "BFS":
		want := o.ssnspAt(version, src)
		for x := range values {
			if values[x] != want[0][x] {
				return fmt.Sprintf("level[%d]=%d, oracle %d", x, values[x], want[0][x])
			}
		}
		for x := range counts {
			if counts[x] != want[1][x] {
				return fmt.Sprintf("count[%d]=%d, oracle %d", x, counts[x], want[1][x])
			}
		}
	case "CC":
		want := o.ccAt(version)
		for x := range values {
			if values[x] != want[x] {
				return fmt.Sprintf("label[%d]=%d, oracle %d", x, values[x], want[x])
			}
		}
	case "PageRank":
		want := o.prAt(version)
		for x := range values {
			got := math.Float64frombits(values[x])
			if math.Abs(got-want[x]) > prTolerance {
				return fmt.Sprintf("rank[%d]=%g, oracle %g", x, got, want[x])
			}
		}
	}
	return ""
}
