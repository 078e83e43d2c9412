package engine_test

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"testing"

	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/oracle"
	"tripoline/internal/props"
	"tripoline/internal/streamgraph"
	"tripoline/internal/xrand"
)

// TestArcRoundSharedEndpoints runs the arc round with two workers over
// batches whose arcs share tails and heads heavily: a few dozen vertices
// are tail and head of several hundred stored arcs, so runs straddle chunk
// boundaries and many tails relax into one head (the push's CAS). The
// reversed queries push the same arcs reversed over the transpose, which
// each batch changes in place, in parallel over heads. Run it under -race;
// every slot is held to the oracle.
func TestArcRoundSharedEndpoints(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n, core, base, batches, batchEdges = 60, 30, 150, 4, 350
	rng := xrand.New(307)
	for name, p := range props.Registry() {
		for _, k := range []int{1, 16} {
			sources := pickSources(n, k, rng)
			edges := make([]graph.Edge, base)
			for i := range edges {
				edges[i] = graph.Edge{Src: graph.VertexID(rng.Intn(n)), Dst: graph.VertexID(rng.Intn(n)), W: graph.Weight(1 + rng.Intn(16))}
			}
			g := streamgraph.FromEdges(n, edges, true)
			snap := g.Acquire()
			fwd, _ := engine.Run(snap.Flatten(), p, sources)
			rev, _ := engine.Run(snap.Flatten().Transposed(), p, sources)
			for b := 0; b < batches; b++ {
				batch := make([]graph.Edge, batchEdges)
				for i := range batch {
					batch[i] = graph.Edge{Src: graph.VertexID(rng.Intn(core)), Dst: graph.VertexID(rng.Intn(core)), W: graph.Weight(1 + rng.Intn(16))}
				}
				prev := snap
				var changed []graph.VertexID
				snap, changed = g.InsertEdges(batch)
				flat := snap.FlattenFrom(prev.BuiltFlat(), changed)
				prev.RetireFlat()
				arcs, ok := flat.InsertedArcs()
				if !ok || (b == 0 && len(arcs) < 128) {
					t.Fatalf("%s: batch %d recorded %d arcs (ok=%v); want several chunks' worth", name, b, len(arcs), ok)
				}
				fwd.RunPushArcs(flat, arcs)
				tr := flat.Transposed()
				rarcs, _ := tr.(engine.ArcDelta).InsertedArcs()
				rev.RunPushArcs(tr, rarcs)
				csr := snap.CSR(true)
				requireOracle(t, name+" forward after arc round", fwd, csr, sources, oracle.BestPath)
				requireOracle(t, name+" reverse after arc round", rev, csr, sources, oracle.BestPathTo)
			}
		}
	}
}

// TestArcRoundRejectsUnsortedArcs: an arc list that is not sorted by
// source would split one tail over two runs, so it is refused outright.
func TestArcRoundRejectsUnsortedArcs(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1, W: 1}, {Src: 1, Dst: 2, W: 1}}, true)
	st := engine.NewState(props.BFS{}, 3, 1)
	st.SetSource(0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("an unsorted arc list was accepted")
		}
	}()
	st.RunPushArcs(g, []graph.Edge{{Src: 1, Dst: 2, W: 1}, {Src: 0, Dst: 1, W: 1}})
}

// TestChangedRecordsWhatMoved: a state with a Changed record gets, after
// an arc round that also grows it, exactly the (vertex, slot) pairs whose
// value the round improved — at widths 1 and 5 — and a state without one
// is evaluated the same.
func TestChangedRecordsWhatMoved(t *testing.T) {
	const n, grown = 80, 90
	rng := xrand.New(409)
	moved := 0
	for name, p := range props.Registry() {
		for _, k := range []int{1, 5} {
			sources := pickSources(n, k, rng)
			edges := make([]graph.Edge, 160)
			for i := range edges {
				edges[i] = graph.Edge{Src: graph.VertexID(rng.Intn(n)), Dst: graph.VertexID(rng.Intn(n)), W: graph.Weight(1 + rng.Intn(16))}
			}
			g := streamgraph.FromEdges(n, edges, true)
			prev := g.Acquire()
			tracked, _ := engine.Run(prev.Flatten(), p, sources)
			plain := tracked.Clone()
			before := tracked.Clone()
			tracked.Changed = make([]uint64, n)
			batch := make([]graph.Edge, 60)
			for i := range batch {
				batch[i] = graph.Edge{Src: graph.VertexID(rng.Intn(grown)), Dst: graph.VertexID(rng.Intn(grown)), W: graph.Weight(1 + rng.Intn(16))}
			}
			snap, changed := g.InsertEdges(batch)
			flat := snap.FlattenFrom(prev.BuiltFlat(), changed)
			arcs, _ := flat.InsertedArcs()
			tracked.RunPushArcs(flat, arcs)
			plain.RunPushArcs(flat, arcs)
			if m := flat.NumVertices(); len(tracked.Changed) != tracked.N || tracked.N != m || m <= n {
				t.Fatalf("%s K=%d: Changed has %d entries for %d vertices (graph grew to %d)", name, k, len(tracked.Changed), tracked.N, m)
			}
			for v := 0; v < tracked.N; v++ {
				var want uint64
				for s := 0; s < k; s++ {
					old := p.InitValue()
					if v < n {
						old = before.Value(graph.VertexID(v), s)
					}
					if got := tracked.Value(graph.VertexID(v), s); got != old {
						want |= 1 << uint(s)
					}
					if tracked.Value(graph.VertexID(v), s) != plain.Value(graph.VertexID(v), s) {
						t.Fatalf("%s K=%d: recording changed value(%d, %d)", name, k, v, s)
					}
				}
				if tracked.Changed[v] != want {
					t.Fatalf("%s K=%d: Changed[%d] = %b, moved %b", name, k, v, tracked.Changed[v], want)
				}
				moved += bits.OnesCount64(want)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no batch moved any value: the record was never tested")
	}
}

// specless hides a problem's KernelSpec, so the kernels relax it through
// the Problem interface.
type specless struct{ engine.Problem }

// TestArcRoundCountsPerArc holds the arc round's counters to a sequential
// per-arc count: one hoist per run of arcs sharing a tail, one gate skip
// per slot whose hoisted value is the spec's gate, and one relaxation per
// (arc, slot) that propagates — for every registered problem and its
// spec-less twin at K ∈ {1, 2, 9, 16, 64}. The lists hold at most 64 arcs,
// so the round runs on one worker in list order, and the round's values
// must equal the reference's too. The run is stopped after round 0.
func TestArcRoundCountsPerArc(t *testing.T) {
	const n, core = 48, 12
	rng := xrand.New(521)
	var gated, moved int64
	for name, p := range props.Registry() {
		for _, p := range []engine.Problem{p, specless{p}} {
			spec, hasSpec := engine.KernelSpecOf(p)
			for _, k := range []int{1, 2, 9, 16, 64} {
				label := fmt.Sprintf("%s (spec %v) K=%d", name, hasSpec, k)
				base := make([]graph.Edge, 70)
				for i := range base {
					base[i] = graph.Edge{Src: graph.VertexID(rng.Intn(n)), Dst: graph.VertexID(rng.Intn(n)), W: graph.Weight(1 + rng.Intn(16))}
				}
				st, _ := engine.Run(graph.FromEdges(n, base, true), p, pickSources(n, k, rng))
				// 64 arcs over a few tails: long runs, repeated heads.
				arcs := make([]graph.Edge, 64)
				for i := range arcs {
					arcs[i] = graph.Edge{Src: graph.VertexID(rng.Intn(core)), Dst: graph.VertexID(rng.Intn(n)), W: graph.Weight(1 + rng.Intn(16))}
				}
				slices.SortStableFunc(arcs, func(a, b graph.Edge) int { return int(a.Src) - int(b.Src) })
				g := graph.FromEdges(n, append(base, arcs...), true)

				ref := st.Clone()
				var want engine.Stats
				for i := 0; i < len(arcs); {
					j := i + 1
					for j < len(arcs) && arcs[j].Src == arcs[i].Src {
						j++
					}
					want.Hoists++
					src := make([]uint64, k)
					for s := range src {
						src[s] = ref.Value(arcs[i].Src, s)
					}
					for _, a := range arcs[i:j] {
						for s, v := range src {
							if hasSpec && v == spec.Gate {
								continue
							}
							cand, ok := p.Relax(v, a.W)
							if !ok {
								continue
							}
							want.Relaxations++
							if p.Better(cand, ref.Value(a.Dst, s)) {
								ref.SetValue(a.Dst, s, cand)
								want.Updates++
							}
						}
					}
					for _, v := range src {
						if hasSpec && v == spec.Gate {
							want.GateSkips++
						}
					}
					i = j
				}

				got, err := st.RunPushArcsCtx(engine.NewConsultCtx(1), g, arcs)
				if err != nil && !errors.Is(err, engine.ErrCanceled) {
					t.Fatalf("%s: %v", label, err)
				}
				if got.Iterations != 1 || got.Relaxations != want.Relaxations || got.GateSkips != want.GateSkips ||
					got.Hoists != want.Hoists || got.Updates != want.Updates || got.Activations != 0 {
					t.Fatalf("%s: round 0 counted %+v, per-arc reference %+v", label, got, want)
				}
				requireSameValues(t, label, st, ref, n, k)
				gated += want.GateSkips
				moved += want.Updates
			}
		}
	}
	if gated == 0 || moved == 0 {
		t.Fatalf("the arc lists gated %d slots and moved %d values: the counts were not exercised", gated, moved)
	}
}
