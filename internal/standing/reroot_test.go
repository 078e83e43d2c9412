package standing_test

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tripoline/internal/engine"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/props"
	"tripoline/internal/standing"
	"tripoline/internal/streamgraph"
)

// registeredNames lists the registered simple problems in name order.
func registeredNames() []string {
	names := make([]string, 0, len(props.Registry()))
	for name := range props.Registry() {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// requireSameSet fails unless got and want hold the same roots and the same
// Forward and Reverse values, slot by slot.
func requireSameSet(t *testing.T, label string, got, want *standing.Manager) {
	t.Helper()
	if !slices.Equal(got.Roots, want.Roots) {
		t.Fatalf("%s: roots %v, want %v", label, got.Roots, want.Roots)
	}
	if (got.Reverse == nil) != (want.Reverse == nil) {
		t.Fatalf("%s: Reverse present %v, want %v", label, got.Reverse != nil, want.Reverse != nil)
	}
	same := func(name string, g, w *engine.State) {
		if g.K != w.K || g.N != w.N {
			t.Fatalf("%s: %s is %d×%d, want %d×%d", label, name, g.N, g.K, w.N, w.K)
		}
		for x := range w.N {
			for k := range w.K {
				if a, b := g.Value(graph.VertexID(x), k), w.Value(graph.VertexID(x), k); a != b {
					t.Fatalf("%s: %s.Value(%d, %d) = %d, want %d", label, name, x, k, a, b)
				}
			}
		}
	}
	same("Forward", got.Forward, want.Forward)
	if want.Reverse != nil {
		same("Reverse", got.Reverse, want.Reverse)
	}
}

// someArcs draws about one in every stored arcs of snap (one direction of
// each edge when undirected), at their stored weights.
func someArcs(snap *streamgraph.Snapshot, undirected bool, every int, rng *rand.Rand) []graph.Edge {
	return storedArcs(snap, func(src, dst graph.VertexID) bool {
		return (!undirected || src < dst) && rng.Intn(every) == 0
	})
}

// TestRerootMatchesWideBuild is the lock on Reroot's staged build — q⁻¹ at
// K over the transpose, narrowed, then q at the kept width from the kept
// roots: the set Rooted builds equals New at the top-K roots followed by
// Narrow on MeetSample, roots and every Forward and Reverse value, for all
// six simple problems on directed and undirected R-MAT at K ∈ {1, 5, 16}.
// It holds again after the set is maintained through an insert batch and a
// deletion batch and re-rooted on the version they reached.
func TestRerootMatchesWideBuild(t *testing.T) {
	const logN = 10
	keptOther := false
	for _, name := range registeredNames() {
		p := props.Registry()[name]
		for _, directed := range []bool{true, false} {
			edges := gen.RMAT(gen.Config{LogN: logN, AvgDegree: 6, Directed: directed, MaxWeight: 16, Seed: 431})
			stream := gen.MakeStream(1<<logN, edges, directed, 0.8, 400, 3)
			for _, k := range []int{1, 5, 16} {
				label := fmt.Sprintf("%s directed=%v K=%d", name, directed, k)
				wide := func(flat *streamgraph.Flat) *standing.Manager {
					m := standing.New(p, flat, standing.TopDegreeRoots(flat, k), directed)
					m.Narrow(standing.MeetSample(flat))
					return m
				}
				g := streamgraph.New(1<<logN, directed)
				snap, _ := g.InsertEdges(stream.Initial)
				flat := snap.Flatten()
				m := standing.Rooted(p, flat, k, directed)
				want := wide(flat)
				requireSameSet(t, label+" built", m, want)
				// The kept roots are not always the first ranked ones.
				top := standing.TopDegreeRoots(flat, k)
				keptOther = keptOther || !slices.Equal(m.Roots, top[:len(m.Roots)])

				prev := snap
				var changed []graph.VertexID
				snap, changed = g.InsertEdges(stream.Batches[0])
				m.Update(snap.Flatten(), changed)
				prev.RetireFlat()
				del := someArcs(snap, !directed, 100, rand.New(rand.NewSource(int64(k))))
				prev = snap
				snap, _ = g.DeleteEdges(del)
				m.UpdateDeletions(snap.Flatten(), del, !directed)
				prev.RetireFlat()

				flat = snap.Flatten()
				m.Reroot(flat, k)
				requireSameSet(t, label+" re-rooted", m, wide(flat))
			}
		}
	}
	if !keptOther {
		t.Fatal("no set kept a root other than the first ranked ones: the lock would not tell kept roots from ranked ones")
	}
}

// TestRootPairsAgree holds the two standing states of a directed set to
// each other on the root pairs keep reads: property(r_i, r_j) is
// Forward.Value(r_j, i) and Reverse.Value(r_i, j), the same exact value,
// after the build, after each of three insert batches and after each of
// two deletion batches, for all six simple problems.
func TestRootPairsAgree(t *testing.T) {
	const logN = 10
	edges := gen.RMAT(gen.Config{LogN: logN, AvgDegree: 6, Directed: true, MaxWeight: 16, Seed: 433})
	stream := gen.MakeStream(1<<logN, edges, true, 0.7, 300, 5)
	for _, name := range registeredNames() {
		p := props.Registry()[name]
		g := streamgraph.New(1<<logN, true)
		snap, _ := g.InsertEdges(stream.Initial)
		m := standing.New(p, snap.Flatten(), standing.TopDegreeRoots(snap, 16), true)
		check := func(at string) {
			t.Helper()
			for i, ri := range m.Roots {
				for j, rj := range m.Roots {
					if f, r := m.Forward.Value(rj, i), m.Reverse.Value(ri, j); f != r {
						t.Fatalf("%s %s: property(%d, %d) is %d in Forward, %d in Reverse", name, at, ri, rj, f, r)
					}
				}
			}
		}
		check("built")
		for b := range 3 {
			prev := snap
			var changed []graph.VertexID
			snap, changed = g.InsertEdges(stream.Batches[b])
			m.Update(snap.Flatten(), changed)
			prev.RetireFlat()
			check(fmt.Sprintf("after insert batch %d", b))
		}
		rng := rand.New(rand.NewSource(7))
		for b := range 2 {
			del := someArcs(snap, false, 80, rng)
			// Every out-arc of the first root too, so the trim reaches the roots.
			dsts, ws := snap.Flatten().OutSpan(m.Roots[0])
			for i := range dsts[:min(len(dsts), 20)] {
				if !slices.ContainsFunc(del, func(d graph.Edge) bool { return d.Src == m.Roots[0] && d.Dst == dsts[i] }) {
					del = append(del, graph.Edge{Src: m.Roots[0], Dst: dsts[i], W: ws[i]})
				}
			}
			prev := snap
			snap, _ = g.DeleteEdges(del)
			m.UpdateDeletions(snap.Flatten(), del, false)
			prev.RetireFlat()
			check(fmt.Sprintf("after deletion batch %d", b))
		}
	}
}

// degreeList is a Degrees over a slice of out-degrees.
type degreeList []int

func (d degreeList) NumVertices() int            { return len(d) }
func (d degreeList) Degree(v graph.VertexID) int { return d[v] }

// TestTopDegreeRootsMatchesSort holds TopDegreeRoots' one-pass buffer to the
// full sort it replaced (higher degree first, ties to the lower id) on
// degree lists with heavy ties, in random, ascending and descending order,
// at every k from none to more than the vertices.
func TestTopDegreeRootsMatchesSort(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(11))
	lists := map[string]degreeList{}
	random, ascending, descending := make(degreeList, n), make(degreeList, n), make(degreeList, n)
	for v := range n {
		random[v] = rng.Intn(5)
		if rng.Intn(20) == 0 {
			random[v] = 40 + rng.Intn(3)
		}
		ascending[v] = v / 7
		descending[v] = (n - v) / 7
	}
	lists["random"], lists["ascending"], lists["descending"] = random, ascending, descending
	for name, deg := range lists {
		ids := make([]graph.VertexID, n)
		for v := range ids {
			ids[v] = graph.VertexID(v)
		}
		slices.SortFunc(ids, func(a, b graph.VertexID) int {
			if c := cmp.Compare(deg[b], deg[a]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		for _, k := range []int{0, 1, 7, 16, 64, n, n + 3} {
			got := standing.TopDegreeRoots(deg, k)
			want := ids[:min(k, n)]
			if !slices.Equal(got, want) {
				t.Fatalf("%s k=%d: roots %v, want %v", name, k, got, want)
			}
		}
	}
}

// BenchmarkTopDegreeRoots ranks the query-minmax shape's preloaded graph
// (directed R-MAT, 2^18 vertices at degree 4, 60 % loaded) for K=16 roots:
//
//	go test ./internal/standing -run '^$' -bench TopDegreeRoots
func BenchmarkTopDegreeRoots(b *testing.B) {
	cfg := gen.Config{LogN: 18, AvgDegree: 4, Directed: true, Seed: 1}
	stream := gen.MakeStream(cfg.N(), gen.RMAT(cfg), true, 0.6, 10_000, 1)
	g := streamgraph.New(cfg.N(), true)
	snap, _ := g.InsertEdges(stream.Initial)
	flat := snap.Flatten()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rootsSink = standing.TopDegreeRoots(flat, 16)
	}
}

// rootsSink keeps BenchmarkTopDegreeRoots' result live.
var rootsSink []graph.VertexID
