package standing

import (
	"fmt"
	"slices"
	"testing"

	"tripoline/internal/engine"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/oracle"
	"tripoline/internal/props"
	"tripoline/internal/streamgraph"
)

// TestLanesInstallFreeReuse is the lock on the lane pool, on both
// orientations: an installed lane fills the lowest free lane, a freed lane
// is reused before its page grows, a full page grows by one block of 8,
// the 65th lane opens a second page (dropped again once it is empty), and
// a freed lane keeps the init value through an insertion and a deletion
// that would have moved it had it kept its source — and is never reported
// moved. After every step every live lane is held to oracle.BestPath.
func TestLanesInstallFreeReuse(t *testing.T) {
	for _, directed := range []bool{false, true} {
		t.Run(fmt.Sprintf("directed=%v", directed), func(t *testing.T) {
			runLanePool(t, directed)
		})
	}
}

type lanePool struct {
	t        *testing.T
	directed bool
	p        engine.Problem
	g        *streamgraph.Graph
	snap     *streamgraph.Snapshot
	m        *Manager
	sources  map[int]graph.VertexID // live lane → source
}

func runLanePool(t *testing.T, directed bool) {
	const n = 90
	lp := &lanePool{t: t, directed: directed, p: props.SSSP{}, g: streamgraph.New(n, directed), sources: make(map[int]graph.VertexID)}
	lp.snap, _ = lp.g.InsertEdges(gen.Uniform(n, 700, 9, 17))
	lp.m = New(lp.p, lp.snap.Flatten(), []graph.VertexID{0, 1, 2, 3}, directed)

	for s := graph.VertexID(10); s < 13; s++ {
		lp.install(s, int(s)-10)
	}
	lp.widths("three lanes", 8)
	lp.free(1)
	lp.install(40, 1)
	lp.widths("reuse of lane 1", 8)
	for s := graph.VertexID(13); s < 18; s++ {
		lp.install(s, int(s)-10)
	}
	lp.widths("one full block", 8)
	lp.install(18, 8)
	lp.widths("growth by one block", 16)
	for s := graph.VertexID(19); s < 74; s++ {
		lp.install(s, int(s)-10)
	}
	lp.widths("one full page", 64)
	lp.install(80, 64)
	lp.widths("the 65th lane", 64, 8)

	// Lane 5's source was 15: give 15 cheap arcs to everyone, then delete
	// its witness arcs. Neither may move the freed lane.
	lp.free(5)
	var batch []graph.Edge
	for v := graph.VertexID(30); v < 60; v++ {
		batch = append(batch, graph.Edge{Src: 15, Dst: v, W: 1})
	}
	prev := lp.snap
	snap, changed := lp.g.InsertEdges(batch)
	lp.snap = snap
	lp.m.Update(snap.FlattenFrom(prev.BuiltFlat(), changed), changed)
	prev.RetireFlat()
	lp.check("insertion after free")
	deleted := slices.Clone(batch[:20])
	for i := range deleted {
		// The trim's witness test goes by the stored weight.
		deleted[i].W, _ = lp.snap.HasEdge(deleted[i].Src, deleted[i].Dst)
	}
	lp.snap, _ = lp.g.DeleteEdges(deleted)
	lp.m.UpdateDeletions(lp.snap.Flatten(), deleted, !directed)
	lp.check("deletion after free")
	lp.install(81, 5)
	lp.free(64)
	lp.widths("second page emptied", 64)
}

// install installs q(s), evaluated from scratch, and requires lane want.
func (lp *lanePool) install(s graph.VertexID, want int) {
	lp.t.Helper()
	col, _ := engine.Run(lp.snap.Flatten(), lp.p, []graph.VertexID{s})
	if got := lp.m.Install(s, col); got != want {
		lp.t.Fatalf("install of %d took lane %d, want %d", s, got, want)
	}
	lp.sources[want] = s
	lp.check(fmt.Sprintf("install of %d", s))
}

func (lp *lanePool) free(lane int) {
	lp.t.Helper()
	lp.m.Free(lane)
	delete(lp.sources, lane)
	lp.check(fmt.Sprintf("free of lane %d", lane))
}

// widths requires the pages' widths.
func (lp *lanePool) widths(label string, want ...int) {
	lp.t.Helper()
	var got []int
	for _, pg := range lp.m.pages {
		got = append(got, pg.st.K)
	}
	if !slices.Equal(got, want) {
		lp.t.Fatalf("%s: page widths %v, want %v", label, got, want)
	}
}

// check holds every live lane to the oracle and every free lane of every
// page to init, and drains the moved record, which must name live lanes
// only.
func (lp *lanePool) check(label string) {
	t := lp.t
	t.Helper()
	lp.m.DrainMoved(func(lane, v int) {
		if _, ok := lp.sources[lane]; !ok {
			t.Fatalf("%s: free lane %d reported moved at %d", label, lane, v)
		}
	})
	csr := lp.snap.CSR(lp.directed)
	init := lp.p.InitValue()
	for i, pg := range lp.m.pages {
		for k := range pg.st.K {
			lane := i*64 + k
			col := lp.m.LaneColumns([]int{lane})[0]
			if len(col) != lp.snap.NumVertices() {
				t.Fatalf("%s: lane %d holds %d values, the graph has %d vertices", label, lane, len(col), lp.snap.NumVertices())
			}
			s, live := lp.sources[lane]
			if live != (pg.live&(1<<k) != 0) {
				t.Fatalf("%s: lane %d live=%v in the page, %v in the test", label, lane, !live, live)
			}
			var want []uint64
			if live {
				want = oracle.BestPath(csr, lp.p, s)
			}
			for v, got := range col {
				if live && got != want[v] {
					t.Fatalf("%s: lane %d (source %d) value(%d) = %#x, oracle %#x", label, lane, s, v, got, want[v])
				}
				if !live && got != init {
					t.Fatalf("%s: free lane %d value(%d) = %#x, not init", label, lane, v, got)
				}
			}
		}
	}
}
