package check

import (
	"context"
	"fmt"
	"math"

	"tripoline/internal/core"
	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/oracle"
	"tripoline/internal/props"
	"tripoline/internal/streamgraph"
)

// oracleSet is one replay's ground truth. It owns a reference graph that
// receives every mutation the System under test applies, and memoizes
// the from-scratch oracle answers per published version: the snapshot
// pinned at each op boundary, the CSR materialized from the reference
// C-tree (never from a mirror the System evaluated over — a corrupted
// mirror cannot fool an oracle that never reads it), and the per-problem
// sequential recomputations. It also collects the replay's divergences.
type oracleSet struct {
	g *streamgraph.Graph
	// versions records every published version in order; Op.VerIdx
	// indexes this list.
	versions []uint64
	snaps    map[uint64]*streamgraph.Snapshot
	csrs     map[uint64]*graph.CSR
	pr       map[uint64][]float64
	cc       map[uint64][]uint64
	// paths memoizes the single-source problems: SSNSP/BFS levels and
	// counts, SSSP distances (nil counts).
	paths   map[pathKey][2][]uint64
	reasons []string
	// verified counts the answers compared with the oracle.
	verified int
}

type pathKey struct {
	ver     uint64
	src     graph.VertexID
	problem string
}

// bestPath holds the checked problems the oracle answers by its generic
// best-path evaluation.
var bestPath = map[string]engine.Problem{"SSSP": props.SSSP{}, "SSWP": props.SSWP{}, "SSR": props.SSR{}}

// newOracleSet returns the ground truth for a replay over an undirected
// graph of n vertices, with the initial version recorded.
func newOracleSet(n int) *oracleSet {
	o := &oracleSet{
		g:     streamgraph.New(n, false),
		snaps: make(map[uint64]*streamgraph.Snapshot),
		csrs:  make(map[uint64]*graph.CSR),
		pr:    make(map[uint64][]float64),
		cc:    make(map[uint64][]uint64),
		paths: make(map[pathKey][2][]uint64),
	}
	o.record()
	return o
}

func (o *oracleSet) diverge(format string, args ...any) {
	if len(o.reasons) < maxReasons {
		o.reasons = append(o.reasons, fmt.Sprintf(format, args...))
	}
}

// record pins the reference graph's current snapshot so the oracle can
// materialize this version later.
func (o *oracleSet) record() {
	snap := o.g.Acquire()
	o.snaps[snap.Version()] = snap
	o.versions = append(o.versions, snap.Version())
}

// apply applies one batch — deletions when del is set — to sys and to the
// reference graph, records the version, and reports a divergence when
// the mutation fails or the two versions differ. where labels the
// divergence.
func (o *oracleSet) apply(ctx context.Context, sys *core.System, where string, del bool, edges []graph.Edge) core.BatchReport {
	apply, ref := sys.ApplyBatchCtx, o.g.InsertEdges
	if del {
		apply, ref = sys.ApplyDeletionsCtx, o.g.DeleteEdges
	}
	rep, err := apply(ctx, edges)
	if err != nil {
		o.diverge("%s: mutation: %v", where, err)
		return rep
	}
	ref(edges)
	o.record()
	if v := o.g.Acquire().Version(); rep.Version != v {
		o.diverge("%s: published v=%d, reference graph at v=%d", where, rep.Version, v)
	}
	return rep
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

// pathsAt returns the oracle's single-source answer: levels and counts
// for SSNSP and BFS (which share the key), best-path values for SSSP,
// SSWP and SSR.
func (o *oracleSet) pathsAt(ver uint64, problem string, src graph.VertexID) [2][]uint64 {
	if problem == "BFS" {
		problem = "SSNSP"
	}
	key := pathKey{ver, src, problem}
	if v, ok := o.paths[key]; ok {
		return v
	}
	var v [2][]uint64
	if p, ok := bestPath[problem]; ok {
		v[0] = oracle.BestPath(o.csrAt(ver), p, src)
	} else {
		v[0], v[1] = oracle.CountShortestPaths(o.csrAt(ver), src)
	}
	o.paths[key] = v
	return v
}

// verifyAt compares one answer for (problem, src) against the
// from-scratch oracle at the version it reports, returning "" on
// agreement or a one-line reason on the first difference. counts is
// consulted only for SSNSP; BFS is its level half.
func (o *oracleSet) verifyAt(problem string, src graph.VertexID, version uint64, values, counts []uint64) string {
	o.verified++
	csr := o.csrAt(version)
	if csr == nil {
		return "result version not tracked"
	}
	if len(values) != csr.N {
		return fmt.Sprintf("%d values for %d vertices", len(values), csr.N)
	}
	switch problem {
	case "SSNSP", "BFS", "SSSP", "SSWP", "SSR":
		want := o.pathsAt(version, problem, src)
		for x := range values {
			if values[x] != want[0][x] {
				return fmt.Sprintf("value[%d]=%d, oracle %d", x, values[x], want[0][x])
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
