package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/metrics"
	"tripoline/internal/streamgraph"
)

// randArcs returns m random arcs over n vertices with weights in [1, 9].
func randArcs(rng *rand.Rand, n, m int) []graph.Edge {
	out := make([]graph.Edge, m)
	for i := range out {
		out[i] = graph.Edge{
			Src: graph.VertexID(rng.Intn(n)),
			Dst: graph.VertexID(rng.Intn(n)),
			W:   graph.Weight(1 + rng.Intn(9)),
		}
	}
	return out
}

// enabled enables problems on sys.
func enabled(t testing.TB, sys *System, problems ...string) *System {
	t.Helper()
	for _, p := range problems {
		if err := sys.Enable(p); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// The history window is the barrier's ring; the TestHistory* tests below
// hold it to what a retained-version window promises.

// TestHistoryRecordAndLookup: every batch publishes one snapshot, at finds
// a retained version and nothing else, and an older snapshot does not see
// arcs inserted after it.
func TestHistoryRecordAndLookup(t *testing.T) {
	sys := NewSystem(streamgraph.New(4, true), 4)
	sys.EnableHistory(8)                                 // version 0
	sys.ApplyBatch([]graph.Edge{{Src: 0, Dst: 1, W: 1}}) // version 1
	sys.ApplyBatch([]graph.Edge{{Src: 1, Dst: 2, W: 1}}) // version 2

	if got := sys.HistoryVersions(); !slices.Equal(got, []uint64{0, 1, 2}) {
		t.Fatalf("versions=%v", got)
	}
	s1, ok := sys.bar.at(1)
	if !ok || s1.Version() != 1 || s1.NumEdges() != 1 {
		t.Fatalf("version 1: %v %v", s1, ok)
	}
	if _, ok := s1.HasEdge(1, 2); ok {
		t.Fatal("old version sees newer arc")
	}
	if latest := sys.bar.latest(); latest.Version() != 2 || latest.NumEdges() != 2 {
		t.Fatal("latest wrong")
	}
	if _, ok := sys.bar.at(99); ok {
		t.Fatal("phantom version found")
	}
}

// TestHistoryEviction: the ring retains the newest capacity snapshots,
// oldest first, and narrowing it evicts down to the new capacity.
func TestHistoryEviction(t *testing.T) {
	g := streamgraph.New(8, true)
	b := newBarrier(g.Acquire())
	b.widen(3)
	for v := 1; v <= 5; v++ {
		snap, _ := g.InsertEdges([]graph.Edge{{Src: graph.VertexID(v), Dst: 0, W: 1}})
		b.publish(snap)
	}
	if got := b.versions(); !slices.Equal(got, []uint64{3, 4, 5}) {
		t.Fatalf("capacity 3 retained %v", got)
	}
	if snap, ok := b.at(4); !ok || snap.Version() != 4 {
		t.Fatal("retained version 4 not found")
	}
	if _, ok := b.at(2); ok {
		t.Fatal("evicted version 2 found")
	}
	b.widen(2)
	if got := b.versions(); !slices.Equal(got, []uint64{4, 5}) || b.latest().Version() != 5 {
		t.Fatalf("narrowed to %v, latest %d", got, b.latest().Version())
	}
}

// TestHistoryCapacityMinimum: a capacity below one is clamped to one, so
// the latest entry is always retained.
func TestHistoryCapacityMinimum(t *testing.T) {
	sys := NewSystem(streamgraph.New(2, true), 4)
	sys.EnableHistory(0)
	sys.ApplyBatch([]graph.Edge{{Src: 0, Dst: 1, W: 1}})
	if got := sys.HistoryVersions(); !slices.Equal(got, []uint64{1}) {
		t.Fatalf("capacity 0 retained %v, want the latest alone", got)
	}
}

// TestHistoryEvictionRecycles: versions that fall out of the history
// window keep no mirror, and their slabs return to the recycler; the
// writer retires every superseded snapshot, so only the latest entry's
// mirror is still unretired.
func TestHistoryEvictionRecycles(t *testing.T) {
	const n = 16
	g := streamgraph.New(n, true)
	sys := enabled(t, NewSystem(g, 4), "SSSP")
	sys.EnableHistory(2)
	rng := rand.New(rand.NewSource(3))
	snaps := []*streamgraph.Snapshot{sys.bar.latest()}
	for i := 0; i < 4; i++ {
		sys.ApplyBatch(randArcs(rng, n, 10))
		snaps = append(snaps, sys.bar.latest())
	}
	if got := sys.HistoryVersions(); !slices.Equal(got, []uint64{3, 4}) {
		t.Fatalf("versions=%v", got)
	}
	for v, snap := range snaps[:4] {
		if snap.BuiltFlat() != nil {
			t.Fatalf("superseded version %d kept its mirror", v)
		}
	}
	if snaps[4].BuiltFlat() == nil {
		t.Fatal("latest version lost its mirror")
	}
	if puts := g.MirrorMetrics().SlabPuts.Value(); puts < 8 {
		t.Fatalf("expected ≥ 8 slab puts from 4 retired mirrors, got %d", puts)
	}
}

// TestReadersNeverPinARetiredMirror: the writer retires the mirror a
// snapshot superseded only after publishing it, inside its exclusive
// window, and a Δ-reader pins the latest snapshot under the evaluator's
// shared lock — so it always finds the mirror it pins retainable. With
// Δ-query loops running throughout a stream of batches no mirror is built
// in full, and every batch delta-patches exactly one. Run under -race in
// CI.
func TestReadersNeverPinARetiredMirror(t *testing.T) {
	t.Run("S=1", func(t *testing.T) {
		const n, readers, batches = 1 << 12, 4, 40
		rng := rand.New(rand.NewSource(61))
		sys := enabled(t, NewSystem(streamgraph.FromEdges(n, randArcs(rng, n, 8*n), true), 8), "SSSP")
		reg := metrics.NewRegistry()
		sys.RegisterMetrics(reg)

		stop := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := sys.QueryCtx(context.Background(), "SSSP", graph.VertexID((r*977+i*131)%n)); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		for b := 0; b < batches; b++ {
			sys.ApplyBatch(randArcs(rng, n, 500))
		}
		close(stop)
		wg.Wait()

		full := reg.Counter("tripoline_mirror_full_builds_total", "").Value()
		delta := reg.Counter("tripoline_mirror_delta_builds_total", "").Value()
		if full != 0 {
			t.Fatalf("%d mirrors built in full across %d batches with %d readers", full, batches, readers)
		}
		if delta != batches {
			t.Fatalf("%d delta builds for %d batches", delta, batches)
		}
	})
}

// TestWriterUnionTransposeMatchesS1: the transpose the standing sets
// share — the one the writer's mirror carries from version to version,
// patched with each insertion's reversed record and rebuilt after a
// deletion — must be the transpose of that mirror, span for span, with the
// same reversed record, after every batch. Two directed standing sets
// (SSSP and SSWP) are maintained concurrently, so both ask the mirror for
// its transpose at once in every batch, the deletion included; under
// -race this is the lock on that transpose. After every batch each set's
// Forward must also be a fixpoint of the writer's view and its Reverse of
// that view's transpose: the answers alone would not show an
// under-converged root.
func TestWriterUnionTransposeMatchesS1(t *testing.T) {
	const n = 160
	sys := enabled(t, NewSystem(streamgraph.New(n, true), 4), "SSSP", "SSWP")
	rng := rand.New(rand.NewSource(31))
	for round := 0; round < 6; round++ {
		batch := randArcs(rng, n+round*3, 220) // grows the vertex range
		sys.ApplyBatch(batch)
		what := fmt.Sprintf("batch %d", round)
		if round == 3 {
			sys.ApplyDeletions(batch[:60])
			what += " and a deletion"
		}
		view := sys.current()
		fresh := streamgraph.TransposeFrom(view)
		requireSameView(t, what, view.(engine.Transposer).Transposed(), fresh)
		fresh.Release()
		requireFixpoint(t, what, sys)
	}
}

// requireFixpoint holds every standing set of sys to the fixpoint of the
// writer's view of the latest version: Forward over the view, Reverse
// over its transpose.
func requireFixpoint(t *testing.T, what string, sys *System) {
	t.Helper()
	view := sys.current()
	for _, set := range sys.ev.sets {
		if vs := set.Forward.CheckConverged(view, 4); len(vs) != 0 {
			t.Fatalf("%s: %s forward state is not a fixpoint: %+v", what, set.Problem.Name(), vs)
		}
		if vs := set.Reverse.CheckConverged(view.(engine.Transposer).Transposed(), 4); len(vs) != 0 {
			t.Fatalf("%s: %s reverse state is not a fixpoint of the transpose: %+v", what, set.Problem.Name(), vs)
		}
	}
}

// requireSameView holds two transposed views to the same vertex count,
// spans, version and insertion record.
func requireSameView(t *testing.T, what string, got, want engine.ArcView) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() {
		t.Fatalf("%s: %d vertices, want %d", what, got.NumVertices(), want.NumVertices())
	}
	for v := 0; v < want.NumVertices(); v++ {
		gd, gw := got.OutSpan(graph.VertexID(v))
		wd, ww := want.OutSpan(graph.VertexID(v))
		if !slices.Equal(gd, wd) || !slices.Equal(gw, ww) {
			t.Fatalf("%s: span of %d is %v/%v, want %v/%v", what, v, gd, gw, wd, ww)
		}
	}
	gv, wv := got.(engine.ArcDelta), want.(engine.ArcDelta)
	if gv.Version() != wv.Version() {
		t.Fatalf("%s: version %d, want %d", what, gv.Version(), wv.Version())
	}
	ga, gok := gv.InsertedArcs()
	wa, wok := wv.InsertedArcs()
	if gok != wok || !slices.Equal(ga, wa) {
		t.Fatalf("%s: record %v (ok=%v), want %v (ok=%v)", what, ga, gok, wa, wok)
	}
}
