package shard

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"tripoline/internal/core"
	"tripoline/internal/graph"
	"tripoline/internal/streamgraph"
)

// A Router is a core.System that New builds over a fresh graph; the shard
// count it is given is ignored. The contract is exactness: it must answer
// every query with the same values a System over the caller's graph
// (core.NewSystem) produces at the same version — bit-identical for the
// integer problems, within PageRank's convergence tolerance for the float
// one — whatever shard count the caller passes.

const prTol = 1e-6

var allProblems = []string{"BFS", "SSSP", "SSWP", "SSNP", "Viterbi", "SSR", "Radii", "SSNSP", "PageRank", "CC"}

func randBatch(rng *rand.Rand, n, m int) []graph.Edge {
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

// pair is one reference system over the caller's graph plus one split
// across S stores, fed identical mutations.
type pair struct {
	ref *core.System
	rt  *Router
}

func newPair(t *testing.T, n int, directed bool, shards int, problems []string) *pair {
	t.Helper()
	g := streamgraph.New(n, directed)
	ref := core.NewSystem(g, 4)
	rt := New(n, directed, shards, 4)
	for _, p := range problems {
		if err := ref.Enable(p); err != nil {
			t.Fatalf("ref enable %s: %v", p, err)
		}
		if err := rt.Enable(p); err != nil {
			t.Fatalf("router enable %s: %v", p, err)
		}
	}
	return &pair{ref: ref, rt: rt}
}

func (p *pair) insert(t *testing.T, batch []graph.Edge) {
	t.Helper()
	rr := p.ref.ApplyBatch(batch)
	sr := p.rt.ApplyBatch(batch)
	if rr.Version != sr.Version {
		t.Fatalf("version skew after insert: ref %d router %d", rr.Version, sr.Version)
	}
}

func (p *pair) remove(t *testing.T, batch []graph.Edge) {
	t.Helper()
	rr := p.ref.ApplyDeletions(batch)
	sr := p.rt.ApplyDeletions(batch)
	if rr.Version != sr.Version {
		t.Fatalf("version skew after delete: ref %d router %d", rr.Version, sr.Version)
	}
}

func valuesMatch(problem string, a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	if problem == "PageRank" {
		for i := range a {
			if math.Abs(math.Float64frombits(a[i])-math.Float64frombits(b[i])) > prTol {
				return false
			}
		}
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (p *pair) compareQueries(t *testing.T, problem string, sources []graph.VertexID) {
	t.Helper()
	for _, u := range sources {
		want, err1 := p.ref.Query(problem, u)
		got, err2 := p.rt.Query(problem, u)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s query %d: error mismatch ref=%v router=%v", problem, u, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if !valuesMatch(problem, want.Values, got.Values) {
			t.Fatalf("%s query %d: values diverge (ref v%d, router v%d)", problem, u, want.Version, got.Version)
		}
		if !valuesMatch("", want.Counts, got.Counts) {
			t.Fatalf("%s query %d: counts diverge", problem, u)
		}
		if want.Radius != got.Radius {
			t.Fatalf("%s query %d: radius %d vs %d", problem, u, want.Radius, got.Radius)
		}
		if want.Width != got.Width {
			t.Fatalf("%s query %d: width %d vs %d", problem, u, want.Width, got.Width)
		}
		if problem != "PageRank" && problem != "CC" && want.Version != got.Version {
			t.Fatalf("%s query %d: version %d vs %d", problem, u, want.Version, got.Version)
		}
		// The same evaluation, not only the same answer: the same standing
		// root, bound and warm start as the reference.
		if want.StandingSlot != got.StandingSlot || want.PropUR != got.PropUR || want.Incremental != got.Incremental {
			t.Fatalf("%s query %d: slot/property(u,r)/incremental %d/%d/%v vs %d/%d/%v", problem, u,
				want.StandingSlot, want.PropUR, want.Incremental, got.StandingSlot, got.PropUR, got.Incremental)
		}
	}
}

func (p *pair) compareFull(t *testing.T, problem string, u graph.VertexID) {
	t.Helper()
	want, err1 := p.ref.QueryFull(problem, u)
	got, err2 := p.rt.QueryFull(problem, u)
	if err1 != nil || err2 != nil {
		t.Fatalf("%s full %d: ref err %v, router err %v", problem, u, err1, err2)
	}
	if !valuesMatch(problem, want.Values, got.Values) {
		t.Fatalf("%s full %d: values diverge", problem, u)
	}
	if !valuesMatch("", want.Counts, got.Counts) {
		t.Fatalf("%s full %d: counts diverge", problem, u)
	}
	if want.Radius != got.Radius {
		t.Fatalf("%s full %d: radius %d vs %d", problem, u, want.Radius, got.Radius)
	}
	if want.Version != got.Version {
		t.Fatalf("%s full %d: version %d vs %d", problem, u, want.Version, got.Version)
	}
}

func testEquivalence(t *testing.T, directed bool, shards int) {
	const n = 160
	rng := rand.New(rand.NewSource(7))
	p := newPair(t, n, directed, shards, allProblems)
	sources := []graph.VertexID{0, 3, 17, 42, 99, 158}
	for round := 0; round < 6; round++ {
		p.insert(t, randBatch(rng, n, 220))
		if round == 3 {
			// Delete a slice of what exists (repeating the generator's
			// stream guarantees overlap with inserted edges).
			del := randBatch(rand.New(rand.NewSource(7)), n, 60)
			p.remove(t, del)
		}
		for _, prob := range allProblems {
			p.compareQueries(t, prob, sources)
		}
	}
	for _, prob := range allProblems {
		p.compareFull(t, prob, 42)
	}
}

func TestEquivalenceDirectedS4(t *testing.T)   { testEquivalence(t, true, 4) }
func TestEquivalenceUndirectedS4(t *testing.T) { testEquivalence(t, false, 4) }
func TestEquivalenceDirectedS3(t *testing.T)   { testEquivalence(t, true, 3) }

// TestSingleShardRunsTheUnion: a one-store split — an undirected graph
// stored as directed arcs, mirrored by the writer — answers like a System
// over the undirected graph itself, the same evaluation and the Δ-result
// cache included.
func TestSingleShardRunsTheUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := newPair(t, 100, false, 1, []string{"SSSP", "PageRank"})
	p.rt.EnableResultCache(16)
	p.insert(t, randBatch(rng, 100, 150))
	p.compareQueries(t, "SSSP", []graph.VertexID{5, 50})
	p.compareQueries(t, "PageRank", []graph.VertexID{5})
	if got, want := p.rt.NumEdges(), p.ref.NumEdges(); got != want {
		t.Fatalf("NumEdges() = %d, reference %d", got, want)
	}
	if _, _, ok := p.rt.CachedQuery("SSSP", 5, 0, true); !ok {
		t.Fatal("S=1 cached query should hit after Query")
	}
}

// TestVertexGrowth inserts an edge beyond the initial vertex range: only
// the owning shard grows, and queries over the enlarged union must still
// match the reference.
func TestVertexGrowth(t *testing.T) {
	p := newPair(t, 50, true, 4, []string{"SSSP", "CC"})
	p.insert(t, []graph.Edge{{Src: 1, Dst: 2, W: 3}, {Src: 2, Dst: 70, W: 1}, {Src: 70, Dst: 80, W: 2}})
	if p.rt.NumVertices() != 81 {
		t.Fatalf("union vertex count = %d, want 81", p.rt.NumVertices())
	}
	p.compareQueries(t, "SSSP", []graph.VertexID{1, 2, 70, 80})
	p.compareQueries(t, "CC", []graph.VertexID{1, 80})
	// A source beyond the union range errors identically.
	_, err1 := p.ref.Query("SSSP", 200)
	_, err2 := p.rt.Query("SSSP", 200)
	if err1 == nil || err2 == nil {
		t.Fatalf("out-of-range source: ref err %v, router err %v", err1, err2)
	}
}

// TestQueryMany compares the batched path against per-query answers from
// the reference system.
func TestQueryMany(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := newPair(t, 120, true, 4, []string{"SSSP"})
	p.insert(t, randBatch(rng, 120, 300))
	sources := []graph.VertexID{4, 9, 9, 33, 77}
	// Width 9 crosses a slot block of the width-K state (8 slots) and
	// leaves 7 padding lanes; width 5 stays inside one block. Both name
	// one source twice.
	for _, sources := range [][]graph.VertexID{sources, {4, 9, 9, 33, 77, 0, 119, 51, 64}} {
		mr, err := p.rt.QueryManyCtx(context.Background(), "SSSP", sources)
		if err != nil {
			t.Fatalf("QueryMany: %v", err)
		}
		for j, u := range sources {
			want, err := p.ref.Query("SSSP", u)
			if err != nil {
				t.Fatalf("ref query %d: %v", u, err)
			}
			for v := range want.Values {
				if got := mr.Value(graph.VertexID(v), j); got != want.Values[v] {
					t.Fatalf("QueryMany width %d slot %d vertex %d: %d vs %d", len(sources), j, v, got, want.Values[v])
				}
			}
		}
	}
	if _, err := p.rt.QueryManyCtx(context.Background(), "SSSP", nil); err == nil {
		t.Fatal("empty QueryMany should error")
	}
	if _, err := p.rt.QueryManyCtx(context.Background(), "Radii", sources); err == nil {
		t.Fatal("non-simple QueryMany should error")
	}
}

// TestQueryAt compares historical queries at every retained global
// version.
func TestQueryAt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := newPair(t, 100, true, 4, []string{"SSSP", "SSNSP"})
	p.ref.EnableHistory(8)
	p.rt.EnableHistory(8)
	for i := 0; i < 5; i++ {
		p.insert(t, randBatch(rng, 100, 80))
	}
	refVers := p.ref.HistoryVersions()
	rtVers := p.rt.HistoryVersions()
	if len(refVers) == 0 || len(rtVers) == 0 {
		t.Fatal("history empty")
	}
	// The intersection must agree at every version (ring capacities may
	// retain slightly different windows; the router records the initial
	// entry too).
	retained := make(map[uint64]bool)
	for _, v := range rtVers {
		retained[v] = true
	}
	checked := 0
	for _, v := range refVers {
		if !retained[v] {
			continue
		}
		for _, prob := range []string{"SSSP", "SSNSP"} {
			want, err1 := p.ref.QueryAtCtx(context.Background(), v, prob, 42)
			got, err2 := p.rt.QueryAtCtx(context.Background(), v, prob, 42)
			if err1 != nil || err2 != nil {
				t.Fatalf("QueryAt v%d %s: ref err %v, router err %v", v, prob, err1, err2)
			}
			if !valuesMatch(prob, want.Values, got.Values) {
				t.Fatalf("QueryAt v%d %s: values diverge", v, prob)
			}
			if !valuesMatch("", want.Counts, got.Counts) {
				t.Fatalf("QueryAt v%d %s: counts diverge", v, prob)
			}
			if got.Version != v {
				t.Fatalf("QueryAt v%d: stamped %d", v, got.Version)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no common retained versions")
	}
	// A version that was never retained errors with the sentinel.
	if _, err := p.rt.QueryAtCtx(context.Background(), 9999, "SSSP", 1); err == nil {
		t.Fatal("missing version should error")
	}
}

// TestSubscriptionsMatchSystem: a router's subscriptions are the
// evaluator's, so every frame a subscriber receives — the snapshot, then
// one delta per batch that changes the graph — equals the frame a lone
// core.System pushes for the same (problem, source), version by version,
// across insertions, a deletion that trims the standing state and one that
// removes nothing (no frame on either side), and the batch reports carry
// the same fan-out.
func TestSubscriptionsMatchSystem(t *testing.T) {
	const n = 150
	problems := []string{"SSSP", "SSWP", "SSNSP", "CC"}
	for _, c := range []struct {
		directed bool
		shards   int
	}{{true, 3}, {false, 4}, {true, 1}} {
		t.Run(fmt.Sprintf("directed=%v/S=%d", c.directed, c.shards), func(t *testing.T) {
			p := newPair(t, n, c.directed, c.shards, problems)
			rng := rand.New(rand.NewSource(41))
			first := randBatch(rng, n, 500)
			p.insert(t, first)
			type subPair struct{ ref, rt *core.Subscription }
			var subs []subPair
			for i, prob := range problems {
				for _, u := range []graph.VertexID{graph.VertexID(i), 77} {
					ref, err1 := p.ref.SubscribeCtx(context.Background(), prob, u, 4)
					rt, err2 := p.rt.SubscribeCtx(context.Background(), prob, u, 4)
					if err1 != nil || err2 != nil {
						t.Fatalf("subscribe %s(%d): ref err %v, router err %v", prob, u, err1, err2)
					}
					subs = append(subs, subPair{ref, rt})
				}
			}
			if got, want := p.rt.Subscribers(), p.ref.Subscribers(); got != want || got != len(subs) {
				t.Fatalf("Subscribers() = %d, reference %d, want %d", got, want, len(subs))
			}
			// frames requires each pair to hold the same buffered frames: want of
			// them each, or none.
			frames := func(what string, want int) {
				t.Helper()
				for _, s := range subs {
					for k := 0; k < want; k++ {
						rf, gf := <-s.ref.Frames(), <-s.rt.Frames()
						if !reflect.DeepEqual(rf, gf) {
							t.Fatalf("%s: %s(%d) frame %+v, reference %+v", what, s.ref.Problem, s.ref.Source, gf, rf)
						}
					}
					if len(s.ref.Frames()) != 0 || len(s.rt.Frames()) != 0 {
						t.Fatalf("%s: %s(%d) has %d frames left, reference %d", what, s.ref.Problem, s.ref.Source,
							len(s.rt.Frames()), len(s.ref.Frames()))
					}
				}
			}
			fanout := func(what string, rr, sr core.BatchReport, sent int) {
				t.Helper()
				if rr.Subscribers != sr.Subscribers || rr.FramesSent != sr.FramesSent || rr.FramesDropped != sr.FramesDropped || sr.FramesSent != sent {
					t.Fatalf("%s: fan-out %d/%d/%d, reference %d/%d/%d, want %d sent", what,
						sr.Subscribers, sr.FramesSent, sr.FramesDropped, rr.Subscribers, rr.FramesSent, rr.FramesDropped, sent)
				}
			}
			frames("snapshot", 1)
			for round := 0; round < 2; round++ {
				batch := randBatch(rng, n+10, 120) // grows the vertex range
				fanout("insertion", p.ref.ApplyBatch(batch), p.rt.ApplyBatch(batch), len(subs))
				frames(fmt.Sprintf("insertion %d", round), 1)
			}
			fanout("deletion", p.ref.ApplyDeletions(first[:80]), p.rt.ApplyDeletions(first[:80]), len(subs))
			frames("deletion", 1)
			absent := []graph.Edge{{Src: n + 50, Dst: n + 51}, {Src: 1, Dst: n + 52}}
			fanout("no-op deletion", p.ref.ApplyDeletions(absent), p.rt.ApplyDeletions(absent), 0)
			frames("no-op deletion", 0)
			batch := randBatch(rng, n, 60)
			fanout("insertion after", p.ref.ApplyBatch(batch), p.rt.ApplyBatch(batch), len(subs))
			frames("insertion after the deletions", 1)
			for _, s := range subs {
				p.ref.Unsubscribe(s.ref)
				p.rt.Unsubscribe(s.rt)
				if _, open := <-s.rt.Frames(); open {
					t.Fatal("Unsubscribe left the frame channel open")
				}
			}
			if got := p.rt.Subscribers(); got != 0 {
				t.Fatalf("Subscribers() = %d after unsubscribing all", got)
			}
			if _, err := p.rt.SubscribeCtx(context.Background(), "Radii", 0, 1); err == nil {
				t.Fatal("Radii is not one value per vertex: subscribe should fail")
			}
		})
	}
}

// TestSubscriberChurnDuringBatches: subscribers come and go on several
// goroutines while the router's writer applies batches, so registration,
// the snapshot's pin and the writer's refresh interleave. Every
// subscriber's frame-reconstructed answer must be the full evaluation at
// the version of its last frame.
func TestSubscriberChurnDuringBatches(t *testing.T) {
	const n, batches = 120, 24
	rt := New(n, true, 3, 4)
	for _, p := range []string{"SSSP", "BFS"} {
		if err := rt.Enable(p); err != nil {
			t.Fatal(err)
		}
	}
	rt.EnableHistory(batches + 2)
	rng := rand.New(rand.NewSource(5))
	rt.ApplyBatch(randBatch(rng, n, 300))
	pending := make([][]graph.Edge, batches)
	for i := range pending {
		pending[i] = randBatch(rng, n, 30)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for _, b := range pending {
			rt.ApplyBatch(b)
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round, stop := 0, false; !stop; round++ {
				problem := []string{"SSSP", "BFS"}[round%2]
				src := graph.VertexID((w*31 + round*7) % n)
				sub, err := rt.SubscribeCtx(context.Background(), problem, src, batches+2)
				if err != nil {
					t.Error(err)
					return
				}
				var values []uint64
				var version uint64
				apply := func(f core.ResultFrame) {
					if f.Kind == "snapshot" {
						values = f.Values
					}
					for _, d := range f.Changed {
						values[d.Vertex] = d.Value
					}
					version = f.Version
				}
				apply(<-sub.Frames())
				for k := 0; k < 2 && !stop; k++ {
					select {
					case f := <-sub.Frames():
						apply(f)
					case <-done:
						stop = true
					}
				}
				rt.Unsubscribe(sub)
				for f := range sub.Frames() {
					apply(f)
				}
				want, err := rt.QueryAtCtx(context.Background(), version, problem, src)
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(values, want.Values) {
					t.Errorf("%s(%d): frames reconstruct a wrong answer at v%d", problem, src, version)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := rt.Subscribers(); got != 0 {
		t.Fatalf("Subscribers() = %d after every subscriber left", got)
	}
}

// TestShardedRunsTheSingleEvaluation: with one worker the engine is
// deterministic, so a Δ-query over the union of S mirrors must activate and
// relax exactly what the reference System's does — the same standing root,
// the same Δ-initialization seeded at the source only, the same engine run
// over the same spans — on a directed graph and on an undirected one,
// whose edges the router stores as two arcs on their tails' shards.
func TestShardedRunsTheSingleEvaluation(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 160
	sources := []graph.VertexID{0, 3, 17, 42, 99, 158}
	for _, c := range []struct {
		directed bool
		shards   int
	}{{true, 4}, {false, 3}} {
		p := newPair(t, n, c.directed, c.shards, []string{"SSSP", "SSWP"})
		rng := rand.New(rand.NewSource(29))
		for round := 0; round < 3; round++ {
			p.insert(t, randBatch(rng, n, 300))
			for _, prob := range []string{"SSSP", "SSWP"} {
				p.compareQueries(t, prob, sources)
				for _, u := range sources {
					want, err1 := p.ref.Query(prob, u)
					got, err2 := p.rt.Query(prob, u)
					if err1 != nil || err2 != nil {
						t.Fatalf("%s(%d): ref err %v, router err %v", prob, u, err1, err2)
					}
					if want.Stats.Activations != got.Stats.Activations || want.Stats.Relaxations != got.Stats.Relaxations {
						t.Fatalf("directed=%v S=%d %s(%d): %d activations / %d relaxations, reference %d / %d",
							c.directed, c.shards, prob, u, got.Stats.Activations, got.Stats.Relaxations,
							want.Stats.Activations, want.Stats.Relaxations)
					}
				}
			}
		}
	}
}

// TestDeletionKeepsDeltaWarmStart: a deletion publishes a new version, and
// the standing set must record that it converged on it — the next
// insertion's maintenance pushes only the arcs the batch stored when the
// set stands on the version right before, and every out-arc of the
// batch's sources otherwise. So after a deletion that removes nothing (the
// graph is the same, so the set only records the version) and after one
// that removes stored arcs, an insertion must cost exactly what it costs a
// System built over the same graph without any deletion, and queries stay
// the reference's evaluation. With one worker the engine is deterministic,
// so the costs compare exactly.
func TestDeletionKeepsDeltaWarmStart(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n, u = 200, graph.VertexID(17)
	rng := rand.New(rand.NewSource(23))
	p := newPair(t, n, true, 2, []string{"SSSP"})
	batch := randBatch(rng, n, 900)
	p.insert(t, batch)
	// warmStart inserts a batch after a deletion and requires the router's
	// maintenance of it to be a fresh System's over kept, the arcs the
	// graph holds, then the next Δ-query to start from the reference's root
	// and bound.
	warmStart := func(when string, kept []graph.Edge) {
		t.Helper()
		fresh := New(n, true, 2, 4)
		if err := fresh.Enable("SSSP"); err != nil {
			t.Fatal(err)
		}
		fresh.ApplyBatch(kept)
		more := randBatch(rng, n, 30)
		want := fresh.ApplyBatch(more).StandingStats
		p.ref.ApplyBatch(more)
		if got := p.rt.ApplyBatch(more).StandingStats; got != want {
			t.Fatalf("%s: the next insertion's maintenance cost %+v, over the same graph without a deletion %+v", when, got, want)
		}
		p.compareQueries(t, "SSSP", []graph.VertexID{u})
		batch = append(kept, more...)
	}
	warmStart("before any deletion", batch)

	stored := make(map[[2]graph.VertexID]bool, len(batch))
	for _, e := range batch {
		stored[[2]graph.VertexID{e.Src, e.Dst}] = true
	}
	var absent []graph.Edge
	for v := graph.VertexID(0); v < n; v++ {
		if d := (v + 1) % n; !stored[[2]graph.VertexID{v, d}] {
			absent = append(absent, graph.Edge{Src: v, Dst: d})
		}
	}
	p.remove(t, absent)
	warmStart("after a no-op deletion", batch)

	del := batch[:40]
	gone := make(map[[2]graph.VertexID]bool, len(del))
	for _, e := range del {
		gone[[2]graph.VertexID{e.Src, e.Dst}] = true
	}
	p.remove(t, del)
	var kept []graph.Edge
	for _, e := range batch {
		if !gone[[2]graph.VertexID{e.Src, e.Dst}] {
			kept = append(kept, e)
		}
	}
	warmStart("after a deletion", kept)
	p.compareQueries(t, "SSSP", []graph.VertexID{u, 3, 150})
}
