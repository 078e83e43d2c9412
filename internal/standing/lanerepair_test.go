package standing

import (
	"fmt"
	"testing"

	"tripoline/internal/engine"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/oracle"
	"tripoline/internal/props"
	"tripoline/internal/streamgraph"
)

// TestLaneRepairFromMeet is the lock on a deletion's lane repair, on the
// six path problems over a directed and an undirected graph: a random
// component holding the roots, a cycle no root reaches (its lane's meet is
// init everywhere) and a chain u→a→b→root whose middle arc is cut, on the
// directed graph the only path from u to any root. Lanes sit at a root,
// at plain vertices, on the cycle and at u. Three deletion batches run —
// a mixed slice that also cuts the chain and the cycle, every arc into a
// lane's source (a plateau problem's witness test reaches the source
// itself, which the settle test keeps), and every out-arc of a root —
// with an insertion left undrained before the second.
// After each one every lane equals oracle.BestPath, and DrainMoved reports
// exactly the (lane, v) pairs whose value moved since the last drain.
func TestLaneRepairFromMeet(t *testing.T) {
	var sourceTainted, meetInit bool
	for _, directed := range []bool{true, false} {
		for _, p := range []engine.Problem{props.SSSP{}, props.BFS{}, props.SSWP{}, props.SSNP{}, props.Viterbi{}, props.SSR{}} {
			t.Run(fmt.Sprintf("%s/directed=%v", p.Name(), directed), func(t *testing.T) {
				lr := newLaneRepair(t, p, directed)
				lr.delete("mixed", func(e graph.Edge) bool {
					return e.Src < 60 && (e.Src+e.Dst)%7 == 0 || e.Src == 63 && e.Dst == 64 || e.Src == 71 && e.Dst == 72
				})
				if directed {
					var buf [64]uint64
					for k, prop := range lr.m.PropURInto(buf[:0], 70) {
						if prop != p.InitValue() {
							t.Fatalf("after the cut, property(70, root %d) = %#x, want init", lr.m.Roots[k], prop)
						}
					}
				}
				lr.insert()
				lr.delete("into the sources", func(e graph.Edge) bool {
					for _, s := range lr.sources {
						if e.Dst == s {
							return true
						}
					}
					return false
				})
				lr.delete("out of a root", func(e graph.Edge) bool { return e.Src == lr.m.Roots[0] })
				sourceTainted = sourceTainted || lr.sourceTainted
				meetInit = meetInit || lr.meetInit
			})
		}
	}
	if !sourceTainted || !meetInit {
		t.Fatalf("coverage: a lane's own source tainted %v, a tainted lane whose meet is init %v", sourceTainted, meetInit)
	}
}

type laneRepair struct {
	t        *testing.T
	p        engine.Problem
	directed bool
	g        *streamgraph.Graph
	snap     *streamgraph.Snapshot
	m        *Manager
	sources  []graph.VertexID // lane i's source
	// cols holds every lane's column at the last drain; moved collects
	// what passes since then moved, as the test sees it.
	cols  [][]uint64
	moved map[[2]int]bool

	sourceTainted, meetInit bool
}

func newLaneRepair(t *testing.T, p engine.Problem, directed bool) *laneRepair {
	const n = 80
	edges := gen.Uniform(60, 500, 6, 23)
	for v := graph.VertexID(60); v < 68; v++ {
		edges = append(edges, graph.Edge{Src: v, Dst: 60 + (v-59)%8, W: 2})
	}
	edges = append(edges,
		graph.Edge{Src: 70, Dst: 71, W: 2}, graph.Edge{Src: 71, Dst: 72, W: 3},
		graph.Edge{Src: 72, Dst: 2, W: 1}, graph.Edge{Src: 70, Dst: 73, W: 1})
	lr := &laneRepair{t: t, p: p, directed: directed, g: streamgraph.New(n, directed), moved: make(map[[2]int]bool)}
	lr.snap, _ = lr.g.InsertEdges(edges)
	lr.m = New(p, lr.snap.Flatten(), []graph.VertexID{2, 21, 40}, directed)
	lr.sources = []graph.VertexID{21, 5, 17, 33, 60, 70}
	for i, s := range lr.sources {
		col, _ := engine.Run(lr.snap.Flatten(), p, []graph.VertexID{s})
		if lane := lr.m.Install(s, col); lane != i {
			t.Fatalf("source %d took lane %d, want %d", s, lane, i)
		}
	}
	lr.cols = lr.columns()
	return lr
}

func (lr *laneRepair) columns() [][]uint64 {
	cols := make([][]uint64, len(lr.sources))
	for lane := range cols {
		cols[lane] = lr.m.LaneColumns([]int{lane})[0]
	}
	return cols
}

// note adds to moved the pairs whose value differs from before.
func (lr *laneRepair) note(before [][]uint64) [][]uint64 {
	after := lr.columns()
	for lane, col := range after {
		for v, x := range col {
			if v >= len(before[lane]) || x != before[lane][v] {
				lr.moved[[2]int{lane, v}] = true
			}
		}
	}
	return after
}

// insert stores a few arcs and maintains the lanes without draining.
func (lr *laneRepair) insert() {
	prev := lr.snap
	var changed []graph.VertexID
	lr.snap, changed = lr.g.InsertEdges(gen.Uniform(60, 40, 6, 29))
	lr.m.Update(lr.snap.FlattenFrom(prev.BuiltFlat(), changed), changed)
	prev.RetireFlat()
	lr.cols = lr.note(lr.cols)
}

// delete removes the stored arcs keep selects, recovers, and holds every
// lane to the oracle and the drained record to what moved.
func (lr *laneRepair) delete(label string, keep func(graph.Edge) bool) {
	t := lr.t
	t.Helper()
	var del []graph.Edge
	pre := lr.snap.Flatten()
	for v := range pre.NumVertices() {
		dsts, ws := pre.OutSpan(graph.VertexID(v))
		for i, d := range dsts {
			e := graph.Edge{Src: graph.VertexID(v), Dst: d, W: ws[i]}
			switch {
			case lr.directed && keep(e):
				del = append(del, e)
			case !lr.directed && e.Src < e.Dst && (keep(e) || keep(graph.Edge{Src: d, Dst: e.Src, W: e.W})):
				del = append(del, e)
			}
		}
	}
	lr.snap, _ = lr.g.DeleteEdges(del)
	post := lr.snap.Flatten()
	// Where the witness test reaches, read before the pass runs and
	// without the settle test, which must then stop at a lane's own
	// source. Lane 4's source is on the cycle, which no root reaches.
	if lanes, _, _ := lr.m.Meet(nil, lr.sources[4]); len(lanes) != 0 {
		t.Fatalf("%s: the meet of the cycle's lane keeps %d roots", label, len(lanes))
	}
	for _, pg := range lr.m.pages {
		taint := lr.m.taint(pg.st, post, del, !lr.directed, nil)
		for lane, s := range lr.sources {
			lr.sourceTainted = lr.sourceTainted || taint != nil && taint[s]>>lane&1 != 0
		}
		for v := range taint {
			lr.meetInit = lr.meetInit || taint[v]>>4&1 != 0
		}
	}
	lr.m.UpdateDeletions(post, del, !lr.directed)
	lr.cols = lr.note(lr.cols)

	csr := lr.snap.CSR(lr.directed)
	for lane, s := range lr.sources {
		want := oracle.BestPath(csr, lr.p, s)
		for v, got := range lr.cols[lane] {
			if got != want[v] {
				t.Fatalf("%s: lane %d (source %d) value(%d) = %#x, oracle %#x", label, lane, s, v, got, want[v])
			}
		}
	}
	reported := make(map[[2]int]bool)
	lr.m.DrainMoved(func(lane, v int) { reported[[2]int{lane, v}] = true })
	for pair := range reported {
		if !lr.moved[pair] {
			t.Fatalf("%s: (lane %d, vertex %d) reported moved, but its value %#x did not move", label, pair[0], pair[1], lr.cols[pair[0]][pair[1]])
		}
	}
	for pair := range lr.moved {
		if !reported[pair] {
			t.Fatalf("%s: (lane %d, vertex %d) moved but was not reported", label, pair[0], pair[1])
		}
	}
	clear(lr.moved)
}
