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
	"tripoline/internal/oracle"
	"tripoline/internal/props"
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

// TestHistoryRecordAndLookup: every batch publishes one entry, at finds a
// retained version and nothing else, and an older entry's snapshot does
// not see arcs inserted after it.
func TestHistoryRecordAndLookup(t *testing.T) {
	sys := NewSystem(streamgraph.New(4, true), 4)
	sys.EnableHistory(8)                                 // version 0
	sys.ApplyBatch([]graph.Edge{{Src: 0, Dst: 1, W: 1}}) // version 1
	sys.ApplyBatch([]graph.Edge{{Src: 1, Dst: 2, W: 1}}) // version 2

	if got := sys.HistoryVersions(); !slices.Equal(got, []uint64{0, 1, 2}) {
		t.Fatalf("versions=%v", got)
	}
	e1, ok := sys.bar.at(1)
	if !ok || e1.global != 1 || e1.snaps[0].NumEdges() != 1 {
		t.Fatalf("version 1: %v %v", e1, ok)
	}
	if _, ok := e1.snaps[0].HasEdge(1, 2); ok {
		t.Fatal("old version sees newer arc")
	}
	if latest := sys.bar.latest(); latest.global != 2 || latest.snaps[0].NumEdges() != 2 {
		t.Fatal("latest wrong")
	}
	if _, ok := sys.bar.at(99); ok {
		t.Fatal("phantom version found")
	}
}

// TestHistoryEviction: the ring retains the newest capacity entries,
// oldest first, and narrowing it evicts down to the new capacity.
func TestHistoryEviction(t *testing.T) {
	b := newBarrier(&entry{global: 0})
	b.widen(3)
	for v := uint64(1); v <= 5; v++ {
		b.publish(&entry{global: v})
	}
	if got := b.versions(); !slices.Equal(got, []uint64{3, 4, 5}) {
		t.Fatalf("capacity 3 retained %v", got)
	}
	if e, ok := b.at(4); !ok || e.global != 4 {
		t.Fatal("retained version 4 not found")
	}
	if _, ok := b.at(2); ok {
		t.Fatal("evicted version 2 found")
	}
	b.widen(2)
	if got := b.versions(); !slices.Equal(got, []uint64{4, 5}) || b.latest().global != 5 {
		t.Fatalf("narrowed to %v, latest %d", got, b.latest().global)
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
// writer retires every superseded mirror, so only the latest entry's is
// still built.
func TestHistoryEvictionRecycles(t *testing.T) {
	const n = 16
	g := streamgraph.New(n, true)
	sys := enabled(t, NewSystem(g, 4), "SSSP")
	sys.EnableHistory(2)
	rng := rand.New(rand.NewSource(3))
	snaps := []*streamgraph.Snapshot{sys.bar.latest().snaps[0]}
	for i := 0; i < 4; i++ {
		sys.ApplyBatch(randArcs(rng, n, 10))
		snaps = append(snaps, sys.bar.latest().snaps[0])
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

// TestReadersNeverPinARetiredMirror: the writer retires the mirrors an
// entry superseded only after publishing it, inside its exclusive window,
// and a Δ-reader pins the latest entry under the evaluator's shared lock —
// so it always finds the mirrors it pins retainable. With Δ-query loops
// running throughout a stream of batches no mirror is built in full, and
// every batch delta-patches exactly the mirrors of the stores it reaches.
// Run under -race in CI.
func TestReadersNeverPinARetiredMirror(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("S=%d", shards), func(t *testing.T) {
			const n, readers, batches = 1 << 12, 4, 40
			rng := rand.New(rand.NewSource(61))
			initial := randArcs(rng, n, 8*n)
			var sys *System
			if shards == 1 {
				sys = NewSystem(streamgraph.FromEdges(n, initial, true), 8)
			} else {
				sys = NewSharded(n, true, shards, 8)
				sys.ApplyBatch(initial)
			}
			enabled(t, sys, "SSSP")
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
			reached := reg.Counter("tripoline_shard_subbatches_total", "").Value()
			if full != 0 {
				t.Fatalf("%d mirrors built in full across %d batches with %d readers", full, batches, readers)
			}
			if delta != reached {
				t.Fatalf("%d delta builds for %d stores reached", delta, reached)
			}
		})
	}
}

// exerciseBuildOnMiss drives every reader that pins a mirror down
// pinMirror's miss path — Retain denied by every store's seam, then a
// version whose mirrors the writer really retired — on a System of the
// given store count, and holds each answer to the sequential oracle on a
// one-store reference System's C-tree at the version the answer reports.
// A query pins its S mirrors once, so a missed query costs exactly S
// private full builds however many rounds it runs; the tagged
// TestLedgerBuildOnMiss asserts every one of them was released.
func exerciseBuildOnMiss(t *testing.T, shards int) {
	t.Helper()
	const n = 120
	ref := enabled(t, NewSystem(streamgraph.New(n, false), 4), "SSSP", "CC")
	sys := enabled(t, NewSharded(n, false, shards, 4), "SSSP", "CC")
	for _, s := range []*System{ref, sys} {
		s.EnableHistory(16)
	}
	insert := func(batch []graph.Edge) {
		ref.ApplyBatch(batch)
		sys.ApplyBatch(batch)
	}
	rng := rand.New(rand.NewSource(18))
	insert(randArcs(rng, n, 80))
	retired := sys.Version()
	insert(randArcs(rng, n, 80)) // retires that version's mirrors

	// exact holds column off of the stride-wide got to the oracle at version.
	exact := func(label, problem string, u graph.VertexID, version uint64, got []uint64, stride, off int) {
		t.Helper()
		e, ok := ref.bar.at(version)
		if !ok {
			t.Fatalf("%s: version %d not retained", label, version)
		}
		csr := e.snaps[0].CSR(false)
		want := oracle.Components(csr)
		if problem != "CC" {
			want = oracle.BestPath(csr, props.Registry()[problem], u)
		}
		for x := range want {
			if g := got[x*stride+off]; g != want[x] {
				t.Fatalf("%s: %s(%d) at v%d: value[%d] = %d, oracle %d", label, problem, u, version, x, g, want[x])
			}
		}
	}
	var builds, misses int64
	fullBuilds := func() (total int64) {
		for _, st := range sys.stores {
			total += st.g.MirrorMetrics().FullBuilds.Value()
		}
		return total
	}
	missed := func(label string) {
		t.Helper()
		misses++
		if got := fullBuilds() - builds; got != misses*int64(shards) {
			t.Fatalf("%s: %d private mirror builds after %d missed queries at S=%d", label, got, misses, shards)
		}
	}
	deny := func(on bool) {
		for _, st := range sys.stores {
			st.g.Seam().SetDenyRetain(on)
		}
	}

	builds = fullBuilds()
	deny(true)
	res, err := sys.Query("SSSP", 7)
	if err != nil {
		t.Fatal(err)
	}
	exact("Query", "SSSP", 7, res.Version, res.Values, 1, 0)
	missed("Query")
	for _, problem := range []string{"SSSP", "CC"} {
		if res, err = sys.QueryFull(problem, 51); err != nil {
			t.Fatal(err)
		}
		exact("QueryFull", problem, 51, res.Version, res.Values, 1, 0)
		missed("QueryFull " + problem)
	}
	sources := []graph.VertexID{2, 63, 119}
	many, err := sys.QueryMany("SSSP", sources)
	if err != nil {
		t.Fatal(err)
	}
	for j, u := range sources {
		exact("QueryMany", "SSSP", u, many.Version, many.Values, many.Width, j)
	}
	missed("QueryMany")
	sub, err := sys.Subscribe("SSSP", 13, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Unsubscribe(sub)
	frame := <-sub.Frames()
	values := frame.Values
	exact("subscription snapshot", "SSSP", 13, frame.Version, values, 1, 0)
	missed("Subscribe")
	// The refresh evaluates over the writer's own mirrors: no pin, no build.
	insert(randArcs(rng, n, 40))
	frame = <-sub.Frames()
	for _, d := range frame.Changed {
		values[d.Vertex] = d.Value
	}
	exact("subscription refresh", "SSSP", 13, frame.Version, values, 1, 0)
	// The retired version: with the seam still armed, then — no seam — with
	// its mirrors drained for real.
	for _, problem := range []string{"SSSP", "CC"} {
		if res, err = sys.QueryAt(retired, problem, 5); err != nil {
			t.Fatal(err)
		}
		exact("QueryAt", problem, 5, res.Version, res.Values, 1, 0)
		missed("QueryAt " + problem)
		deny(false)
	}
	// And a live mirror is retained, not rebuilt.
	if _, err := sys.Query("SSSP", 7); err != nil || fullBuilds()-builds != misses*int64(shards) {
		t.Fatalf("a query over live mirrors: err %v, %d builds for %d misses", err, fullBuilds()-builds, misses)
	}
}

func TestBuildOnMiss(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("S=%d", shards), func(t *testing.T) { exerciseBuildOnMiss(t, shards) })
	}
}

// TestWriterUnionTransposeMatchesS1: the transpose an S-store System
// carries from entry to entry — patched with the merged record of the
// stores a batch reached, rebuilt after a deletion — must be the one a
// one-store System's mirror chain carries, span for span, with the same
// reversed record, after every batch. Two directed standing sets (SSSP and
// SSWP) are maintained concurrently, so both ask the union for its
// transpose at once in every batch, the deletion included; under -race
// this is the lock on that transpose. After every batch each set's Forward
// must also be a fixpoint of the writer's view and its Reverse of that
// view's transpose, at S=1 and at S: the answers alone would not show an
// under-converged root.
func TestWriterUnionTransposeMatchesS1(t *testing.T) {
	const n = 160
	for _, shards := range []int{3, 4} {
		one := enabled(t, NewSystem(streamgraph.New(n, true), 4), "SSSP", "SSWP")
		many := enabled(t, NewSharded(n, true, shards, 4), "SSSP", "SSWP")
		rng := rand.New(rand.NewSource(31))
		for round := 0; round < 6; round++ {
			batch := randArcs(rng, n+round*3, 220) // grows the vertex range
			one.ApplyBatch(batch)
			many.ApplyBatch(batch)
			what := fmt.Sprintf("S=%d batch %d", shards, round)
			if round == 3 {
				del := batch[:60]
				one.ApplyDeletions(del)
				many.ApplyDeletions(del)
				what += " and a deletion"
			}
			want := one.stores[0].g.Acquire().Flatten().Transposed()
			got := many.current(many.bar.latest()).(engine.Transposer).Transposed()
			requireSameView(t, what, got, want)
			requireFixpoint(t, what+" S=1", one)
			requireFixpoint(t, what, many)
		}
	}
}

// requireFixpoint holds every standing set of sys to the fixpoint of the
// writer's view of the latest entry: Forward over the view, Reverse over
// its transpose.
func requireFixpoint(t *testing.T, what string, sys *System) {
	t.Helper()
	view := sys.current(sys.bar.latest())
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
