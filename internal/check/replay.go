package check

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"tripoline/internal/core"
	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/streamgraph"
	"tripoline/internal/xrand"
)

const (
	// historyCap is large enough that no schedule (≤ maxOps mutations,
	// even split) ever evicts a version the checker still needs.
	historyCap = 4096
	// prTolerance bounds PageRank comparisons: the standing ranks, a full
	// parallel run, and the sequential oracle each sit within tol·d/(1−d)
	// ≈ 5.7e-9 of the true fixpoint (see oracle.PageRank), so 1e-6 is
	// comfortable and immune to atomic-add rounding.
	prTolerance = 1e-6
	// maxReasons caps divergence messages per replay; one is enough to
	// fail, the rest is diagnostics.
	maxReasons = 8
	// replayK is the standing-query count per problem.
	replayK = 8
)

// variant describes one way of replaying a schedule. Every variant is
// verified against the oracle; all but the base (batches as written) are
// also compared with the base under cmp, because they replay the same
// logical workload through different code paths and must observe the
// same results.
type variant struct {
	name string
	// shuffle permutes each batch's edges (order invariance: the graph is
	// a set of edges, and first-wins dedup happened at Decode).
	shuffle bool
	// split applies each insert batch as two consecutive sub-batches
	// (batch-split invariance: more versions, more standing maintenance
	// rounds, identical graph at every op boundary).
	split bool
	// deleteReinsert deletes half the surviving edges after the last op
	// and reinserts exactly what was deleted; the probe phase must then
	// observe the identical final graph.
	deleteReinsert bool
	// corrupt arms the store's skew seams (the checker's self-tests).
	corrupt corruption
	cmp     cmpCfg
}

// observation is one query's observable outcome, in replay order.
type observation struct {
	op      int // op index; probes use indexes past len(Ops)
	kind    OpKind
	probe   bool
	problem string
	source  graph.VertexID
	outcome string // ok | canceled | bad-source | no-version | error
	version uint64
	// volatile marks outcomes that legitimately differ across replays
	// (cancellation firing depends on superstep counts, which engine
	// scheduling can shift); they are oracle-verified when ok but
	// excluded from cross-variant comparison.
	volatile bool
	values   []uint64
	counts   []uint64
}

// FaultCounts reports how often each injected fault mode was exercised.
// The *Fired counts tell whether the injection landed before the run
// converged; they depend on engine superstep counts and are
// informational, not part of the deterministic verdict.
type FaultCounts struct {
	Cancels      int `json:"cancels"`
	CancelsFired int `json:"cancels_fired"`
}

func (f *FaultCounts) add(o FaultCounts) {
	f.Cancels += o.Cancels
	f.CancelsFired += o.CancelsFired
}

// replayer drives one System through a schedule. The embedded oracleSet
// is its ground truth and collects its divergences; Op.VerIdx indexes
// its versions list.
type replayer struct {
	*oracleSet
	v        variant
	problems []string // the schedule's (Schedule.Problems)
	sys      *core.System
	rng      *xrand.RNG // shuffle permutations
	obs      []observation
	faults   FaultCounts
}

// checked enables the schedule's problems on sys and turns history on.
func checked(sys *core.System, problems []string) *core.System {
	for _, p := range problems {
		if err := sys.Enable(p); err != nil {
			panic("check: enable " + p + ": " + err.Error())
		}
	}
	sys.EnableHistory(historyCap)
	return sys
}

// replay drives one System through the schedule under the given variant
// and ctx, verifying every successful result against the oracle for the
// version the result reports.
func replay(ctx context.Context, s *Schedule, v variant) *replayer {
	r := &replayer{
		oracleSet: newOracleSet(s.N, s.Directed),
		problems:  s.Problems(),
		v:         v,
		rng:       xrand.New(s.Seed ^ 0x9e3779b97f4a7c15),
	}
	store := streamgraph.New(s.N, s.Directed)
	store.Seam().SetSkewDelta(v.corrupt.delta)
	store.Seam().SetSkewTranspose(v.corrupt.transpose)
	r.sys = checked(core.NewSystem(store, replayK), r.problems)
	for i, op := range s.Ops {
		r.step(ctx, i, op)
	}
	if v.deleteReinsert {
		r.deleteReinsertPhase(ctx)
	}
	r.probes(ctx, len(s.Ops)+1)
	return r
}

// batches applies the variant's shuffle/split transforms to one insert
// batch.
func (r *replayer) batches(edges []graph.Edge) [][]graph.Edge {
	e := edges
	if r.v.shuffle {
		e = append([]graph.Edge(nil), edges...)
		r.rng.Shuffle(len(e), func(i, j int) { e[i], e[j] = e[j], e[i] })
	}
	if !r.v.split || len(e) < 2 {
		return [][]graph.Edge{e}
	}
	mid := len(e) / 2
	return [][]graph.Edge{e[:mid], e[mid:]}
}

func (r *replayer) step(ctx context.Context, i int, op Op) {
	where := fmt.Sprintf("%s: op %d", r.v.name, i)
	switch op.Kind {
	case OpInsert:
		for _, b := range r.batches(op.Edges) {
			r.apply(ctx, r.sys, where, false, b)
		}
	case OpDelete:
		r.apply(ctx, r.sys, where, true, op.Edges)
	case OpQuery:
		res, err := r.sys.QueryCtx(ctx, op.Problem, op.Source)
		r.observe(i, op, false, res, err, false)
	case OpQueryFull:
		res, err := r.sys.QueryFullCtx(ctx, op.Problem, op.Source)
		r.observe(i, op, false, res, err, false)
	case OpQueryAt:
		ver := r.versions[op.VerIdx%len(r.versions)]
		res, err := r.sys.QueryAtCtx(ctx, ver, op.Problem, op.Source)
		r.observe(i, op, false, res, err, false)
	case OpCancel:
		// PageRank and CC answer Δ-queries instantly from standing state,
		// so cancellation can only bite on their full evaluations; a
		// problem with a standing set has supersteps to cancel in its
		// incremental run itself.
		ctx := newCancelCtx(op.Step)
		var (
			res *core.QueryResult
			err error
		)
		if def, _ := core.LookupProblem(op.Problem); def.Base != nil {
			res, err = r.sys.QueryCtx(ctx, op.Problem, op.Source)
		} else {
			res, err = r.sys.QueryFullCtx(ctx, op.Problem, op.Source)
		}
		r.faults.Cancels++
		if err != nil && errors.Is(err, engine.ErrCanceled) {
			r.faults.CancelsFired++
		}
		r.observe(i, op, false, res, err, true)
	case OpReaders:
		r.readers(ctx, i, op)
	}
}

func (r *replayer) readers(ctx context.Context, i int, op Op) {
	n := r.sys.NumVertices()
	type outcome struct {
		res *core.QueryResult
		err error
	}
	outs := make([]outcome, op.Readers)
	var wg sync.WaitGroup
	for j := 0; j < op.Readers; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			src := graph.VertexID((int(op.Source) + j) % n)
			res, err := r.sys.QueryCtx(ctx, op.Problem, src)
			outs[j] = outcome{res, err}
		}(j)
	}
	wg.Wait()
	for j, o := range outs {
		opj := op
		opj.Source = graph.VertexID((int(op.Source) + j) % n)
		r.observe(i, opj, false, o.res, o.err, false)
	}
}

// deleteReinsertPhase removes every other surviving edge and reinserts
// exactly what it removed, with the weights read back from the reference
// graph — the final graph is identical, so the probe phase must agree
// with the base replay.
func (r *replayer) deleteReinsertPhase(ctx context.Context) {
	csr := r.csrAt(r.version)
	var pairs []graph.Edge
	for v := 0; v < csr.N; v++ {
		adj, wgt := csr.OutSpan(graph.VertexID(v))
		for i, d := range adj {
			if r.directed || graph.VertexID(v) < d {
				pairs = append(pairs, graph.Edge{Src: graph.VertexID(v), Dst: d, W: wgt[i]})
			}
		}
	}
	var half []graph.Edge
	for i := 0; i < len(pairs); i += 2 {
		half = append(half, pairs[i])
	}
	if len(half) == 0 {
		return
	}
	r.apply(ctx, r.sys, r.v.name, true, half)
	r.apply(ctx, r.sys, r.v.name, false, half)
}

// probes issues a fixed query matrix against the final graph: per
// problem, Δ-queries at three spread-out sources plus one full
// evaluation. Probe observations are what the order-shifting variants
// (split, delete-reinsert) are compared on.
func (r *replayer) probes(ctx context.Context, opIdx int) {
	n := r.sys.NumVertices()
	sources := []graph.VertexID{0, graph.VertexID(n / 2), graph.VertexID(n - 1)}
	for _, p := range r.problems {
		for _, src := range sources {
			res, err := r.sys.QueryCtx(ctx, p, src)
			r.observe(opIdx, Op{Kind: OpQuery, Problem: p, Source: src}, true, res, err, false)
		}
		res, err := r.sys.QueryFullCtx(ctx, p, graph.VertexID(n/3))
		r.observe(opIdx, Op{Kind: OpQueryFull, Problem: p, Source: graph.VertexID(n / 3)}, true, res, err, false)
	}
}

// observe records one query's outcome and verifies a successful result
// against the oracle at the version it reports.
func (r *replayer) observe(i int, op Op, probe bool, res *core.QueryResult, err error, volatileObs bool) {
	obs := observation{
		op: i, kind: op.Kind, probe: probe,
		problem: op.Problem, source: op.Source, volatile: volatileObs,
	}
	switch {
	case err == nil:
		obs.outcome = "ok"
		obs.version = res.Version
		obs.values = res.Values
		obs.counts = res.Counts
		if msg := r.verifyAt(obs.problem, obs.source, obs.version, obs.values, obs.counts); msg != "" {
			r.diverge("%s: op %d %s src=%d v=%d: %s", r.v.name, i, obs.problem, obs.source, obs.version, msg)
		}
	case errors.Is(err, engine.ErrCanceled):
		obs.outcome = "canceled"
	case errors.Is(err, core.ErrSourceOutOfRange):
		obs.outcome = "bad-source"
	case errors.Is(err, core.ErrNoSuchVersion):
		obs.outcome = "no-version"
	default:
		obs.outcome = "error"
	}
	r.obs = append(r.obs, obs)
}
