package standing_test

import (
	"fmt"
	"testing"

	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/oracle"
	"tripoline/internal/props"
	"tripoline/internal/standing"
	"tripoline/internal/streamgraph"
	"tripoline/internal/xrand"
)

// requireExact holds every Forward slot to oracle.BestPath and every
// Reverse slot to oracle.BestPathTo on the snapshot's CSR, and the
// recorded version to the view's.
func requireExact(t *testing.T, label string, m *standing.Manager, snap *streamgraph.Snapshot, directed bool) {
	t.Helper()
	if m.LastVersion != snap.Version() {
		t.Fatalf("%s: LastVersion %d, view is at %d", label, m.LastVersion, snap.Version())
	}
	csr := snap.CSR(directed)
	for k, r := range m.Roots {
		for v, want := range oracle.BestPath(csr, m.Problem, r) {
			if got := m.Forward.Value(graph.VertexID(v), k); got != want {
				t.Fatalf("%s: forward slot %d (root %d) value(%d) = %#x, oracle %#x", label, k, r, v, got, want)
			}
		}
		if !directed {
			continue
		}
		for v, want := range oracle.BestPathTo(csr, m.Problem, r) {
			if got := m.Reverse.Value(graph.VertexID(v), k); got != want {
				t.Fatalf("%s: reverse slot %d (root %d) value(%d) = %#x, oracle %#x", label, k, r, v, got, want)
			}
		}
	}
}

// TestStandingStaysExact is the lock on arc-driven maintenance. Nothing
// downstream notices an under-converged standing state — a too-weak
// property(u, r) only weakens Δ-initialization, answers stay right — and
// the differential checker replays undirected graphs only, so Reverse is
// held to the oracle here and nowhere else. Directed and undirected
// streams, K ∈ {1, 4, 16, 64}, all six simple
// problems; every Forward and Reverse slot is compared after every step of
// a schedule that mixes plain inserts with intra-batch duplicates, arcs
// re-inserted at another weight (first-wins must keep the stored one),
// vertex growth, an all-duplicate batch (no round at all), two batches
// absorbed by one Update (a version gap: the conservative list) and trimmed
// deletions.
func TestStandingStaysExact(t *testing.T) {
	const n, preload, steps, batchEdges = 90, 260, 14, 18
	widths := []int{1, 4, 16, 64}
	if testing.Short() {
		widths = []int{1, 16}
	}
	for name, p := range props.Registry() {
		for _, directed := range []bool{true, false} {
			for _, k := range widths {
				label := fmt.Sprintf("%s directed=%v K=%d", name, directed, k)
				runExactSchedule(t, label, p, directed, k, n, preload, steps, batchEdges)
			}
		}
	}
}

func runExactSchedule(t *testing.T, label string, p engine.Problem, directed bool, k, n, preload, steps, batchEdges int) {
	t.Helper()
	rng := xrand.New(uint64(1009*k + 31*len(label)))
	randomEdge := func(limit int) graph.Edge {
		return graph.Edge{
			Src: graph.VertexID(rng.Intn(limit)), Dst: graph.VertexID(rng.Intn(limit)),
			W: graph.Weight(1 + rng.Intn(16)),
		}
	}
	initial := make([]graph.Edge, preload)
	for i := range initial {
		initial[i] = randomEdge(n)
	}
	g := streamgraph.New(n, directed)
	snap, _ := g.InsertEdges(initial)
	// storedArc picks an arc the current snapshot holds, at another weight.
	storedArc := func() graph.Edge {
		for {
			v := graph.VertexID(rng.Intn(snap.NumVertices()))
			if dsts, _ := snap.Flatten().OutSpan(v); len(dsts) > 0 {
				return graph.Edge{Src: v, Dst: dsts[rng.Intn(len(dsts))], W: graph.Weight(17 + rng.Intn(16))}
			}
		}
	}
	view := func(prev *streamgraph.Snapshot, changed []graph.VertexID) *streamgraph.Flat {
		if prev != nil {
			return snap.FlattenFrom(prev.BuiltFlat(), changed)
		}
		return snap.Flatten()
	}
	roots := make([]graph.VertexID, k)
	for i := range roots {
		roots[i] = graph.VertexID(rng.Intn(n))
	}
	m := standing.New(p, view(nil, nil), roots, directed)
	requireExact(t, label+" built", m, snap, directed)

	limit := n // vertex range, grown by some batches
	for step := 0; step < steps; step++ {
		at := fmt.Sprintf("%s step %d", label, step)
		batch := make([]graph.Edge, 0, batchEdges+8)
		for i := 0; i < batchEdges; i++ {
			batch = append(batch, randomEdge(limit))
		}
		switch step % 7 {
		case 1: // intra-batch duplicates, the second offer at another weight
			for i := 0; i < 4; i++ {
				dup := batch[rng.Intn(batchEdges)]
				dup.W = graph.Weight(1 + rng.Intn(16))
				batch = append(batch, dup)
			}
		case 2: // stored arcs offered again at another weight
			for i := 0; i < 6; i++ {
				batch = append(batch, storedArc())
			}
		case 3: // vertex growth: arcs into and out of vertices past the range
			for i := 0; i < 3; i++ {
				fresh := graph.VertexID(limit + i)
				batch = append(batch,
					graph.Edge{Src: graph.VertexID(rng.Intn(limit)), Dst: fresh, W: graph.Weight(1 + rng.Intn(16))},
					graph.Edge{Src: fresh, Dst: graph.VertexID(rng.Intn(limit)), W: graph.Weight(1 + rng.Intn(16))})
			}
			limit += 3
		case 4: // all duplicates: nothing stored, nothing to do
			batch = batch[:0]
			for i := 0; i < batchEdges; i++ {
				batch = append(batch, storedArc())
			}
		case 5: // trimmed deletion of stored arcs (and one that never existed)
			deleted := []graph.Edge{{Src: 0, Dst: graph.VertexID(limit - 1), W: 99}}
			for i := 0; i < 5; i++ {
				deleted = append(deleted, storedArc())
			}
			// The trim's witness test goes by the stored weight.
			for i := range deleted {
				if w, ok := snap.HasEdge(deleted[i].Src, deleted[i].Dst); ok {
					deleted[i].W = w
				}
			}
			prev := snap
			snap, _ = g.DeleteEdges(deleted)
			m.UpdateDeletions(view(nil, nil), deleted, !directed)
			prev.RetireFlat()
			requireExact(t, at+" deletion", m, snap, directed)
			continue
		case 6: // two batches, one Update: the state is two versions behind
			prev := snap
			var first []graph.VertexID
			snap, first = g.InsertEdges(batch[:batchEdges/2])
			prev.RetireFlat()
			prev = snap
			var second []graph.VertexID
			snap, second = g.InsertEdges(batch[batchEdges/2:])
			m.Update(view(nil, nil), mergeSorted(first, second))
			prev.RetireFlat()
			requireExact(t, at+" version gap", m, snap, directed)
			continue
		}
		prev := snap
		var changed []graph.VertexID
		snap, changed = g.InsertEdges(batch)
		stats := m.Update(view(prev, changed), changed)
		prev.RetireFlat()
		if step%7 == 4 && (len(changed) != 0 || stats != (engine.Stats{})) {
			t.Fatalf("%s: an all-duplicate batch changed %v and cost %+v", at, changed, stats)
		}
		requireExact(t, at, m, snap, directed)
	}
}

// mergeSorted merges two sorted distinct vertex lists into one.
func mergeSorted(a, b []graph.VertexID) []graph.VertexID {
	out := make([]graph.VertexID, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			out, a = append(out, a[0]), a[1:]
		case a[0] > b[0]:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// TestConservativeListMatchesRecordedDelta: the same batch absorbed through
// the view's own insertion record and through the fallback — a view that
// records nothing, so every out-arc of every changed source is relaxed —
// lands on the same state bit for bit, the recorded delta doing no more
// round-0 work than the arcs it lists.
func TestConservativeListMatchesRecordedDelta(t *testing.T) {
	const n, k = 150, 16
	rng := xrand.New(211)
	edges := make([]graph.Edge, 1500)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(rng.Intn(n)), Dst: graph.VertexID(rng.Intn(n)), W: graph.Weight(1 + rng.Intn(16))}
	}
	roots := make([]graph.VertexID, k)
	for i := range roots {
		roots[i] = graph.VertexID(rng.Intn(n))
	}
	for name, p := range props.Registry() {
		g := streamgraph.FromEdges(n, edges[:1200], true)
		recorded := standing.New(p, g.Acquire().Flatten(), roots, true)
		fallback := standing.New(p, g.Acquire().Flatten(), roots, true)
		for lo := 1200; lo < len(edges); lo += 100 {
			snap, changed := g.InsertEdges(edges[lo : lo+100])
			rs := recorded.Update(snap.Flatten(), changed)
			// A CSR carries neither version nor record.
			fs := fallback.Update(snap.CSR(true), changed)
			if rs.Relaxations > fs.Relaxations {
				t.Fatalf("%s: the recorded delta relaxed %d, the conservative list %d", name, rs.Relaxations, fs.Relaxations)
			}
			for v := 0; v < n; v++ {
				for j := 0; j < k; j++ {
					x := graph.VertexID(v)
					if recorded.Forward.Value(x, j) != fallback.Forward.Value(x, j) ||
						recorded.Reverse.Value(x, j) != fallback.Reverse.Value(x, j) {
						t.Fatalf("%s batch at %d: value(%d,%d) differs between the recorded delta and the conservative list", name, lo, v, j)
					}
				}
			}
		}
	}
}

// TestHubArcCostsOneArc is the counted-work side of the contract: on a
// view that carries its delta, one new arc out of a 1200-degree hub costs
// at most K relaxations per direction — the hub's other out-arcs are not
// looked at, because neither the hub nor anything they lead to moved.
func TestHubArcCostsOneArc(t *testing.T) {
	const spokes, k = 1200, 16
	const far = graph.VertexID(spokes + 1)
	var edges []graph.Edge
	for i := 1; i <= spokes; i++ {
		edges = append(edges,
			graph.Edge{Src: 0, Dst: graph.VertexID(i), W: 1},
			graph.Edge{Src: graph.VertexID(i), Dst: 0, W: 1})
	}
	// far hangs two hops off the hub, so a direct hub→far arc of weight 50
	// improves nothing in either direction.
	edges = append(edges, graph.Edge{Src: 1, Dst: far, W: 1}, graph.Edge{Src: far, Dst: 1, W: 1})
	roots := make([]graph.VertexID, k)
	for i := range roots {
		roots[i] = graph.VertexID(i + 1)
	}
	g := streamgraph.FromEdges(int(far)+1, edges, true)
	m := standing.New(props.SSSP{}, g.Acquire().Flatten(), roots, true)
	snap, changed := g.InsertEdges([]graph.Edge{{Src: 0, Dst: far, W: 50}})
	if g.Acquire().Degree(0) < 1000 {
		t.Fatalf("hub degree %d", g.Acquire().Degree(0))
	}
	stats := m.Update(snap.Flatten(), changed)
	if stats.Relaxations == 0 || stats.Relaxations > 2*k || stats.Activations != 0 || stats.Iterations != 2 {
		t.Fatalf("one arc out of the hub cost %+v, want at most %d relaxations in 2 rounds", stats, 2*k)
	}
	requireExact(t, "hub arc", m, snap, true)
}
