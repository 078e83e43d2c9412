package standing

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tripoline/internal/engine"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/oracle"
	"tripoline/internal/props"
	"tripoline/internal/streamgraph"
)

// FuzzTrimMatchesReference holds UpdateDeletions bit for bit to
// updateDeletionsReference — the trim that resets every tainted value —
// and the roots to the oracle, on graphs, problems, widths and batches
// the fuzzer picks: up to 2^9 vertices (a uniform graph closed by a ring
// so that values are reached), either orientation, any registered
// problem, K in [1, 16] roots by degree and three lanes, then a deletion
// batch, an insertion batch (that may restore deleted arcs) and a second
// deletion batch drawn from what is stored then, new arcs included. Every
// root and lane repair ends in a push from the taint's boundary, so the
// width-1 push that the plateau problems' roots (SSWP, SSNP, SSR) run on
// deletion is held here too.
//
// The seed corpus in testdata/fuzz holds every problem in both
// orientations, at K = 1, 8 or 16. Explore further with
//
//	go test ./internal/standing -run '^$' -fuzz FuzzTrimMatchesReference -fuzztime 5s
func FuzzTrimMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(6), true, uint8(0), uint8(0), uint8(12), uint8(16))
	names := make([]string, 0, len(props.Registry()))
	for name := range props.Registry() {
		names = append(names, name)
	}
	slices.Sort(names)
	f.Fuzz(func(t *testing.T, seed uint64, logN uint8, directed bool, problem, k, dels, ins uint8) {
		n := 1 << (3 + logN%7)
		name := names[int(problem)%len(names)]
		p := props.Registry()[name]
		rng := rand.New(rand.NewSource(int64(seed)))
		edges := gen.Uniform(n, 3*n, 16, seed)
		for v := range n {
			edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID((v + 1) % n), W: graph.Weight(1 + rng.Intn(16))})
		}
		g := streamgraph.New(n, directed)
		snap, _ := g.InsertEdges(edges)
		pre := snap.Flatten()
		roots := TopDegreeRoots(pre, 1+int(k)%16)
		got := New(p, pre, roots, directed)
		want := New(p, pre, roots, directed)
		for range 3 {
			s := graph.VertexID(rng.Intn(n))
			col, _ := engine.Run(pre, p, []graph.VertexID{s})
			got.Install(s, col)
			want.Install(s, col)
		}

		check := func(what string, snap *streamgraph.Snapshot) {
			t.Helper()
			what = fmt.Sprintf("%s n=%d directed=%v K=%d %s", name, n, directed, len(roots), what)
			requireSameState(t, what+" forward", got.Forward, want.Forward)
			if directed {
				requireSameState(t, what+" reverse", got.Reverse, want.Reverse)
			}
			requireSameState(t, what+" lanes", got.pages[0].st, want.pages[0].st)
			csr := snap.CSR(directed)
			for slot, r := range roots {
				requireColumn(t, fmt.Sprintf("%s forward root %d", what, r), got.Forward, slot, oracle.BestPath(csr, p, r))
				if directed {
					requireColumn(t, fmt.Sprintf("%s reverse root %d", what, r), got.Reverse, slot, oracle.BestPathTo(csr, p, r))
				}
			}
		}
		deleteBatch := func(what string, pool []graph.Edge, size int) {
			t.Helper()
			del := randomArcs(snap, pool, rng, min(size, len(pool)))
			snap, _ = g.DeleteEdges(del)
			post := snap.Flatten()
			got.UpdateDeletions(post, del, !directed)
			want.updateDeletionsReference(post, del, !directed)
			check(what, snap)
		}

		deleteBatch("deletion 1", edges, 1+int(dels)%64)
		batch := make([]graph.Edge, int(ins)%64)
		for i := range batch {
			batch[i] = graph.Edge{Src: graph.VertexID(rng.Intn(n)), Dst: graph.VertexID(rng.Intn(n)), W: graph.Weight(1 + rng.Intn(16))}
		}
		var changed []graph.VertexID
		snap, changed = g.InsertEdges(batch)
		flat := snap.Flatten()
		got.Update(flat, changed)
		want.Update(flat, changed)
		check("insertion", snap)
		deleteBatch("deletion 2", append(edges, batch...), 1+int(dels>>2)%64)
	})
}
