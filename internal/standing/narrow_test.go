package standing_test

import (
	"fmt"
	"slices"
	"testing"

	"tripoline/internal/engine"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/oracle"
	"tripoline/internal/props"
	"tripoline/internal/standing"
	"tripoline/internal/streamgraph"
	"tripoline/internal/triangle"
)

// meetDelta is the query path's Δ-initialization of u from m: the meet
// over the lanes Manager.Meet keeps, written into a fresh column.
func meetDelta(m *standing.Manager, u graph.VertexID) []uint64 {
	lanes, _, _ := m.Meet(nil, u)
	src, stride, _ := m.Forward.StrideView(0)
	dst := make([]uint64, m.Forward.N)
	triangle.DeltaInitMeet(dst, 1, 0, m.Problem, u, lanes, src, stride, m.Forward.N)
	return dst
}

// TestNarrowKeepsTheMeet is the lock on narrowing a standing set: for every
// sampled source the narrowed set's meet is the width-K set's bit for bit
// (Eq. 15's pick included), and for every other source its Δ-init is still
// a sound bound that converges to the oracle. All six simple problems, on
// directed and undirected R-MAT, at K ∈ {1, 5, 16}.
func TestNarrowKeepsTheMeet(t *testing.T) {
	const logN = 9
	names := make([]string, 0, 6)
	for name := range props.Registry() {
		names = append(names, name)
	}
	slices.Sort(names)
	narrowedAny := false
	for _, name := range names {
		p := props.Registry()[name]
		for _, directed := range []bool{true, false} {
			edges := gen.RMAT(gen.Config{LogN: logN, AvgDegree: 6, Directed: directed, MaxWeight: 16, Seed: 409})
			g := streamgraph.FromEdges(1<<logN, edges, directed)
			snap := g.Acquire()
			flat := snap.Flatten()
			csr := snap.CSR(directed)
			sample := standing.MeetSample(flat)
			if len(sample) != 64 {
				t.Fatalf("sample holds %d sources, want 64", len(sample))
			}
			for _, k := range []int{1, 5, 16} {
				label := fmt.Sprintf("%s directed=%v K=%d", name, directed, k)
				roots := standing.TopDegreeRoots(flat, k)
				wide := standing.New(p, flat, roots, directed)
				m := standing.New(p, flat, roots, directed)

				fwd := m.Forward
				m.Narrow(nil)
				if m.Forward != fwd || !slices.Equal(m.Roots, roots) {
					t.Fatalf("%s: an empty sample changed the set", label)
				}

				m.Narrow(sample)
				w := len(m.Roots)
				narrowedAny = narrowedAny || w < k
				if w == 0 || m.Forward.K != w || directed && m.Reverse.K != w || !directed && m.Reverse != nil {
					t.Fatalf("%s: %d roots over Forward width %d", label, w, m.Forward.K)
				}
				if _, ok := m.Forward.ColumnView(0); w == 1 && !ok {
					t.Fatalf("%s: a width-1 set is not on the contiguous layout", label)
				}
				// The kept roots are a subsequence of the original ones.
				wideSlot := make([]int, w)
				for j, i := 0, 0; j < w; i++ {
					if i == k {
						t.Fatalf("%s: roots %v are not a subsequence of %v", label, m.Roots, roots)
					}
					if roots[i] == m.Roots[j] {
						wideSlot[j], j = i, j+1
					}
				}

				for _, u := range sample {
					want, got := meetDelta(wide, u), meetDelta(m, u)
					if !slices.Equal(got, want) {
						t.Fatalf("%s: sampled source %d Δ-initializes differently after narrowing", label, u)
					}
					_, ws, wp := wide.Meet(nil, u)
					_, ns, np := m.Meet(nil, u)
					if wideSlot[ns] != ws || np != wp {
						t.Fatalf("%s: source %d picks root %d (%d) after narrowing, %d (%d) before",
							label, u, m.Roots[ns], np, roots[ws], wp)
					}
				}

				for v := 0; v < flat.NumVertices(); v += 7 {
					u := graph.VertexID(v)
					if slices.Contains(sample, u) {
						continue
					}
					want := oracle.BestPath(csr, p, u)
					delta := meetDelta(m, u)
					for x, d := range delta {
						if p.Better(d, want[x]) {
							t.Fatalf("%s: Δ(%d)[%d] = %d is better than the oracle's %d", label, u, x, d, want[x])
						}
					}
					st := &engine.State{P: p, K: 1, N: len(delta), Values: delta}
					seeds, masks := engine.SourceSeeds([]graph.VertexID{u})
					st.RunPush(flat, seeds, masks)
					if !slices.Equal(st.Values, want) {
						t.Fatalf("%s: the Δ-run from unsampled source %d differs from the oracle", label, u)
					}
				}
			}
		}
	}
	if !narrowedAny {
		t.Fatal("no set narrowed: the test exercised nothing")
	}
}
