package bench

import (
	"fmt"
	"io"
	"time"

	"tripoline/internal/engine"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/props"
	"tripoline/internal/standing"
	"tripoline/internal/streamgraph"
	"tripoline/internal/triangle"
)

// This file holds ablations of Tripoline's individual design choices —
// not paper artifacts, but the measurements that justify the §4.5 and
// §4.2 design decisions the paper asserts:
//
//   - batch mode: maintaining K standing queries under one combined
//     frontier vs K separate single-query evaluations;
//   - standing-query selection: Eq. 15's best-property root vs a random
//     or the worst root;
//   - dual-model evaluation: the pull-based reversed query on the
//     one-way representation vs materializing the transpose and pushing.

// AblationBatchModeResult compares the two standing maintenance modes.
type AblationBatchModeResult struct {
	K              int
	BatchedTime    time.Duration // one K-wide manager (Tripoline's mode)
	SeparateTime   time.Duration // K independent single-query managers
	BatchedSpeedup float64
}

// AblationBatchMode measures incremental standing-query maintenance in
// batch mode versus separately, on the named graph at 60% with one
// update batch, for SSSP.
func AblationBatchMode(w io.Writer, gname string, scale, k, batchSize int, seed uint64) AblationBatchModeResult {
	cfg, ok := gen.ByName(gname, scale)
	if !ok {
		panic("bench: unknown graph " + gname)
	}
	edges := gen.RMAT(cfg)
	stream := gen.MakeStream(cfg.N(), edges, cfg.Directed, 0.6, batchSize, seed)

	build := func() (*streamgraph.Graph, []graph.VertexID) {
		g := streamgraph.New(cfg.N(), cfg.Directed)
		g.InsertEdges(stream.Initial)
		roots := topRoots(g.Acquire(), k)
		return g, roots
	}

	res := AblationBatchModeResult{K: k}

	// Batched: one manager with K slots.
	g, roots := build()
	batched := standing.New(props.SSSP{}, g.Acquire().Flatten(), roots, cfg.Directed)
	snap, changed := g.InsertEdges(stream.Batches[0])
	view := snap.Flatten()
	start := time.Now()
	batched.Update(view, changed)
	res.BatchedTime = time.Since(start)

	// Separate: K single-query managers updated one after another.
	g2, roots2 := build()
	managers := make([]*standing.Manager, k)
	for i, r := range roots2 {
		managers[i] = standing.New(props.SSSP{}, g2.Acquire().Flatten(), []graph.VertexID{r}, cfg.Directed)
	}
	snap2, changed2 := g2.InsertEdges(stream.Batches[0])
	view2 := snap2.Flatten()
	start = time.Now()
	for _, m := range managers {
		m.Update(view2, changed2)
	}
	res.SeparateTime = time.Since(start)

	if res.BatchedTime > 0 {
		res.BatchedSpeedup = float64(res.SeparateTime) / float64(res.BatchedTime)
	}
	fmt.Fprintf(w, "Ablation (batch mode, %s, K=%d): batched=%v separate=%v → %.2fx\n",
		gname, k, res.BatchedTime.Round(time.Microsecond),
		res.SeparateTime.Round(time.Microsecond), res.BatchedSpeedup)
	return res
}

func topRoots(s *streamgraph.Snapshot, k int) []graph.VertexID {
	// local copy of core.TopDegreeRoots to avoid a bench→core dependency
	// cycle concern; identical selection rule (Eq. 14).
	type dv struct {
		d int
		v graph.VertexID
	}
	n := s.NumVertices()
	all := make([]dv, n)
	for v := 0; v < n; v++ {
		all[v] = dv{d: s.Degree(graph.VertexID(v)), v: graph.VertexID(v)}
	}
	// selection of top k by degree (k is small; partial selection sort)
	if k > n {
		k = n
	}
	out := make([]graph.VertexID, 0, k)
	used := make([]bool, n)
	for i := 0; i < k; i++ {
		best := -1
		for j := range all {
			if used[j] {
				continue
			}
			if best == -1 || all[j].d > all[best].d ||
				(all[j].d == all[best].d && all[j].v < all[best].v) {
				best = j
			}
		}
		used[best] = true
		out = append(out, all[best].v)
	}
	return out
}

// AblationSelectionResult compares standing-root selection policies.
type AblationSelectionResult struct {
	Problem      string
	BestSpeedup  float64 // Eq. 15: argmin property(u,r)
	FixedSpeedup float64 // always slot 0 (highest-degree root)
	WorstSpeedup float64 // argmax property(u,r) — the anti-heuristic
}

// AblationSelection measures Δ-based speedups under three standing-root
// selection policies on the named graph at 60%.
func AblationSelection(w io.Writer, gname, problem string, scale, k, queries int, seed uint64) AblationSelectionResult {
	setup, err := Prepare(gname, scale, 0.6, 10_000, k, 0, []string{problem}, seed)
	if err != nil {
		panic(err)
	}
	// Reach the manager through a throwaway query to learn nothing — we
	// instead re-derive Δ inits through a dedicated manager so the three
	// policies share one standing state.
	cfgG := setup.G
	snap := cfgG.Acquire()
	roots := topRoots(snap, k)
	view := snap.Flatten()
	p := props.Registry()[problem]
	mgr := standing.New(p, view, roots, cfgG.Directed())
	qs := setup.SampleQueries(queries, seed+77)

	res := AblationSelectionResult{Problem: problem}
	policies := []struct {
		name string
		pick func(propUR []uint64) int
		out  *float64
	}{
		{"best", func(pu []uint64) int { s, _ := triangle.SelectStanding(p, pu); return s }, &res.BestSpeedup},
		{"fixed", func([]uint64) int { return 0 }, &res.FixedSpeedup},
		{"worst", func(pu []uint64) int {
			worst := 0
			for i := 1; i < len(pu); i++ {
				if p.Better(pu[worst], pu[i]) {
					worst = i
				}
			}
			return worst
		}, &res.WorstSpeedup},
	}
	for _, pol := range policies {
		var sum float64
		for _, u := range qs {
			full, fullT := timedRun(view, p, u)
			pu := mgr.PropUR(u)
			slot := pol.pick(pu)
			init := triangle.DeltaInit(p, u, pu[slot], mgr.StandingColumn(slot))
			st := &engine.State{P: p, K: 1, N: len(init), Values: init}
			t0 := time.Now()
			st.RunPush(view, []graph.VertexID{u}, []uint64{1})
			dT := time.Since(t0)
			for v := range full.Values {
				if full.Values[v] != st.Values[v] {
					panic("ablation: selection policy changed results")
				}
			}
			if dT > 0 {
				sum += float64(fullT) / float64(dT)
			}
		}
		*pol.out = sum / float64(len(qs))
	}
	fmt.Fprintf(w, "Ablation (selection, %s on %s, K=%d): best=%.2fx fixed=%.2fx worst=%.2fx\n",
		problem, gname, k, res.BestSpeedup, res.FixedSpeedup, res.WorstSpeedup)
	return res
}

func timedRun(g engine.ArcView, p engine.Problem, u graph.VertexID) (*engine.State, time.Duration) {
	t0 := time.Now()
	st, _ := engine.Run(g, p, []graph.VertexID{u})
	return st, time.Since(t0)
}

// AblationDualModelResult compares the two ways of computing the
// reversed standing query q⁻¹(r) on a directed graph.
type AblationDualModelResult struct {
	PullTime      time.Duration // dual-model: pull over out-edges (§4.2)
	TransposeTime time.Duration // build in-edge index + push over it
	ExtraArcs     int64         // arcs materialized by the transpose
}

// AblationDualModel measures computing property(x, r) for all x on a
// directed graph: Tripoline's pull-based dual-model evaluation versus
// materializing the transposed graph and pushing — the §4.2 tradeoff
// (the transpose is faster per query but doubles edge storage and
// update cost; the measurement reports both sides).
func AblationDualModel(w io.Writer, gname string, scale int, seed uint64) AblationDualModelResult {
	cfg, ok := gen.ByName(gname, scale)
	if !ok || !cfg.Directed {
		panic("bench: dual-model ablation needs a directed standard graph")
	}
	edges := gen.RMAT(cfg)
	g := streamgraph.FromEdges(cfg.N(), edges, true)
	snap := g.Acquire()
	root := topRoots(snap, 1)[0]
	p := props.SSSP{}
	view := snap.Flatten()

	var res AblationDualModelResult
	t0 := time.Now()
	pull, _ := engine.RunReverse(view, p, []graph.VertexID{root})
	res.PullTime = time.Since(t0)

	t1 := time.Now()
	transposed := snap.CSR(true).Transpose()
	push, _ := engine.Run(transposed, p, []graph.VertexID{root})
	res.TransposeTime = time.Since(t1)
	res.ExtraArcs = transposed.NumEdges()

	for v := 0; v < cfg.N(); v++ {
		if pull.Values[v] != push.Values[v] {
			panic("ablation: dual-model and transpose disagree")
		}
	}
	fmt.Fprintf(w, "Ablation (dual-model, %s): pull=%v transpose(build+push)=%v extra arcs=%d\n",
		gname, res.PullTime.Round(time.Microsecond),
		res.TransposeTime.Round(time.Microsecond), res.ExtraArcs)
	return res
}
