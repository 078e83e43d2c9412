package shard

import (
	"context"
	"fmt"
	"sync"
	"time"

	"tripoline/internal/core"
	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/props"
	"tripoline/internal/streamgraph"
)

// Query paths of the sharded router. All of them evaluate against one
// barrier entry — a pinned per-shard snapshot vector — never against
// "whatever each shard has right now", so a result's Version names a
// coherent cut of the partitioned graph.
//
// Vertex-specific problems run scatter/gather rounds over one shared
// engine.State over the entry's S mirrors, pinned once per query
// (pinEntry): each round runs every shard's push kernel concurrently
// against the same values (the push kernels read every value word with
// an atomic load and improve it by CAS, and keep all other working state
// per call, so sharing the state is sound — see engine.RunPushCtx), then
// the gather step diffs the state against its pre-round copy to build
// the next cross-shard frontier. Rounds repeat until no value moves. Because
// every problem relaxes monotonically from a sound initialization, the
// rounds converge to the same unique fixpoint a single-system
// evaluation reaches — bit-identical for the integer problems.
//
// Incremental (Δ-based) initialization merges each shard's best
// standing bound via core.System.DeltaMergeInto. The merged array is
// sound (each shard's subgraph properties are never better than the
// union's) but NOT triangle-consistent for the union — shard A's bound
// at x may beat anything shard B's arcs into x can derive — so seeding
// only the query source would strand improvements. Instead every vertex
// whose merged init differs from InitValue is seeded, plus the source
// itself: each seeded vertex then re-derives its neighborhood through
// the union's arcs, and the chain of triangle inequalities from the
// source restores exactness.

// QueryCtx answers a user query with Δ-based incremental evaluation,
// gathered across shards, under cooperative cancellation (checked every
// engine superstep in every shard; the first canceled shard run aborts
// the gather).
func (r *Router) QueryCtx(ctx context.Context, name string, u graph.VertexID) (*core.QueryResult, error) {
	if r.single() {
		return r.shards[0].QueryCtx(ctx, name, u)
	}
	def, err := r.lookup(name)
	if err != nil {
		return nil, err
	}
	e := r.bar.latest()
	if err := checkSource(u, e); err != nil {
		return nil, err
	}
	var res *core.QueryResult
	if def.Base == nil {
		res = r.queryWholeGraph(name, u)
	} else if res, err = r.queryDelta(ctx, e, def, u); err != nil {
		return nil, err
	}
	r.cache.Put(res)
	return res, nil
}

// QueryFullCtx answers a user query with a from-scratch evaluation over
// the union graph — the non-incremental baseline — under cooperative
// cancellation.
func (r *Router) QueryFullCtx(ctx context.Context, name string, u graph.VertexID) (*core.QueryResult, error) {
	if r.single() {
		return r.shards[0].QueryFullCtx(ctx, name, u)
	}
	def, err := r.lookup(name)
	if err != nil {
		return nil, err
	}
	e := r.bar.latest()
	if err := checkSource(u, e); err != nil {
		return nil, err
	}
	return r.fullAt(ctx, def, e, u)
}

// QueryAtCtx answers a user query against the retained barrier entry
// with the given global version, via full evaluation (standing state
// tracks only the latest version, so Δ-initialization is invalid for
// older cuts — same reasoning as core's history path).
func (r *Router) QueryAtCtx(ctx context.Context, version uint64, problem string, u graph.VertexID) (*core.QueryResult, error) {
	if r.single() {
		return r.shards[0].QueryAtCtx(ctx, version, problem, u)
	}
	if !r.histOn {
		return nil, fmt.Errorf("shard: history not enabled: %w", core.ErrNoSuchVersion)
	}
	e, ok := r.bar.at(version)
	if !ok {
		return nil, fmt.Errorf("shard: version %d not retained (have %v): %w",
			version, r.bar.versions(), core.ErrNoSuchVersion)
	}
	def, err := r.lookup(problem)
	if err != nil {
		return nil, err
	}
	// In range for the queried version's union — the graph may have grown
	// since.
	if int(u) >= e.n {
		return nil, fmt.Errorf("shard: source %d out of range (version %d has %d vertices): %w",
			u, version, e.n, core.ErrSourceOutOfRange)
	}
	// fullAt stamps e.global, which IS the requested version.
	return r.fullAt(ctx, def, e, u)
}

// QueryManyCtx evaluates up to 64 same-problem user queries in one
// batched scatter/gather evaluation (the problems core batches).
func (r *Router) QueryManyCtx(ctx context.Context, problem string, sources []graph.VertexID) (*core.MultiResult, error) {
	if r.single() {
		return r.shards[0].QueryManyCtx(ctx, problem, sources)
	}
	def, err := r.lookup(problem)
	if err != nil {
		return nil, err
	}
	if !def.Batchable() {
		return nil, fmt.Errorf("shard: problem %q does not support batched user queries", problem)
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("shard: no sources")
	}
	if len(sources) > 64 {
		return nil, fmt.Errorf("shard: at most 64 queries per batch (got %d)", len(sources))
	}
	e := r.bar.latest()
	for _, u := range sources {
		if err := checkSource(u, e); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	w := len(sources)
	st, _, err := r.deltaState(ctx, e, def, sources)
	if err != nil {
		return nil, err
	}
	views, release := pinEntry(e)
	defer release()
	seeds, masks := seedsFromInit(st, sources)
	stats, err := r.runRoundsCtx(ctx, views, st, seeds, masks)
	if err != nil {
		return nil, err
	}
	// Slots/PropURs stay zero: with S independent standing sets there is
	// no single chosen root per query (each shard merged its own). The
	// values themselves are what QueryMany guarantees.
	return &core.MultiResult{
		Problem: problem, Sources: sources,
		Values: st.Interleaved(), Width: w,
		Stats:   stats,
		Slots:   make([]int, w),
		PropURs: make([]uint64, w),
		Elapsed: time.Since(start),
		Version: e.global,
	}, nil
}

// ---------------------------------------------------------------------
// Incremental and full evaluation against one barrier entry.

// mergeDelta folds every shard's best standing Δ-bound for (problem, u)
// at the entry's pinned version into init, reporting whether any shard
// contributed. A shard whose standing state has moved past (or not yet
// reached) its pinned version fails DeltaMergeInto's gate and simply
// contributes nothing — sound, just a weaker initialization.
func (r *Router) mergeDelta(problem string, u graph.VertexID, e *entry, init []uint64) bool {
	any := false
	for i, sys := range r.shards {
		if _, _, ok := sys.DeltaMergeInto(problem, u, e.vec[i], init); ok {
			any = true
		}
	}
	return any
}

// deltaState allocates the width-len(sources) state of an incremental
// evaluation of def at entry e and Δ-initializes it slot by slot: slot j
// merges every shard's best standing bound for sources[j] — straight
// into the state's column at width 1, through a scratch column written
// back by StrideView above it — and then plants its source. incremental
// reports whether any shard contributed a bound. Each slot is an O(S·N)
// pass, so cancellation is honored between slots.
func (r *Router) deltaState(ctx context.Context, e *entry, def core.ProblemDef, sources []graph.VertexID) (st *engine.State, incremental bool, err error) {
	p := def.Base
	st = engine.NewState(p, e.n, len(sources))
	var scratch []uint64
	for j, src := range sources {
		if err := ctx.Err(); err != nil {
			return nil, false, &engine.CanceledError{Cause: err}
		}
		col, contiguous := st.ColumnView(j)
		if !contiguous {
			if scratch == nil {
				scratch = make([]uint64, e.n)
			}
			fillInit(scratch, p.InitValue())
			col = scratch
		}
		if r.mergeDelta(def.Name, src, e, col) {
			incremental = true
		}
		if !contiguous {
			arr, stride, off := st.StrideView(j)
			for v, val := range col {
				arr[v*stride+off] = val
			}
		}
		st.SetSource(src, j)
	}
	return st, incremental, nil
}

// queryDelta answers a user query of a problem with a standing set: the
// merged Δ-initialization, scatter/gather rounds to the union fixpoint,
// then the definition's finish step — one exact pass over the union (the
// SSNSP count is integer sums over arcs, order-independent), never per
// shard.
func (r *Router) queryDelta(ctx context.Context, e *entry, def core.ProblemDef, u graph.VertexID) (*core.QueryResult, error) {
	start := time.Now()
	sources := def.Sources(u, e.n)
	st, incremental, err := r.deltaState(ctx, e, def, sources)
	if err != nil {
		return nil, err
	}
	views, release := pinEntry(e)
	defer release()
	seeds, masks := seedsFromInit(st, sources)
	stats, err := r.runRoundsCtx(ctx, views, st, seeds, masks)
	if err != nil {
		return nil, err
	}
	res, err := def.Answer(ctx, unionOf(views), u, st.Interleaved(), st.K, stats)
	if err != nil {
		return nil, err
	}
	res.Elapsed, res.Incremental, res.Version = time.Since(start), incremental, e.global
	return res, nil
}

// queryWholeGraph answers PageRank or CC instantly from the
// router-maintained standing state; the reported version is the global
// version it converged at, which can trail the latest while a mutation is
// in flight.
func (r *Router) queryWholeGraph(name string, u graph.VertexID) *core.QueryResult {
	res := &core.QueryResult{Problem: name, Source: u, Width: 1, Incremental: true}
	r.wgMu.RLock()
	defer r.wgMu.RUnlock()
	if name == "PageRank" {
		res.Values, res.Version = core.RankBits(r.prRanks), r.prVersion
	} else {
		res.Values, res.Version = append([]uint64(nil), r.ccSt.Values...), r.ccVersion
	}
	return res
}

// fullAt is the full (non-incremental) evaluation against one barrier
// entry, shared by QueryFull and QueryAt. The result's Version is the
// entry's global version.
func (r *Router) fullAt(ctx context.Context, def core.ProblemDef, e *entry, u graph.VertexID) (*core.QueryResult, error) {
	start := time.Now()
	views, release := pinEntry(e)
	defer release()
	var res *core.QueryResult
	switch {
	case def.Base != nil:
		sources := def.Sources(u, e.n)
		st := engine.NewState(def.Base, e.n, len(sources))
		for j, src := range sources {
			st.SetSource(src, j)
		}
		seeds, masks := engine.SourceSeeds(sources)
		stats, err := r.runRoundsCtx(ctx, views, st, seeds, masks)
		if err != nil {
			return nil, err
		}
		if res, err = def.Answer(ctx, unionOf(views), u, st.Interleaved(), st.K, stats); err != nil {
			return nil, err
		}
	case def.Name == "PageRank":
		pr, err := props.PageRankCtx(ctx, unionOf(views), 0.85, 100, 1e-9)
		if err != nil {
			return nil, err
		}
		res = &core.QueryResult{Problem: def.Name, Source: u, Values: core.RankBits(pr.Ranks), Width: 1,
			Stats: engine.Stats{Iterations: pr.Iterations}}
	default:
		st, seeds, masks := props.NewCCState(e.n)
		stats, err := r.runRoundsCtx(ctx, views, st, seeds, masks)
		if err != nil {
			return nil, err
		}
		res = &core.QueryResult{Problem: def.Name, Source: u, Values: st.Values, Width: 1, Stats: stats}
	}
	res.Elapsed, res.Version = time.Since(start), e.global
	return res, nil
}

// ---------------------------------------------------------------------
// Scatter/gather rounds.

// runRoundsCtx drives one state to the union fixpoint — a user query's, or
// the router's CC labels. Each round scatters the current frontier to every
// shard — all shards run their push kernels concurrently against the shared
// state, each over its own pinned mirror — then gathers by diffing the
// values against the pre-round copy: any vertex that moved becomes next
// round's frontier, in every shard (its new value must be re-offered across
// arcs the improving shard does not own). Monotone relaxation over a finite
// lattice terminates with an empty diff.
func (r *Router) runRoundsCtx(ctx context.Context, views []*streamgraph.Flat, st *engine.State, seeds []graph.VertexID, masks []uint64) (engine.Stats, error) {
	var total engine.Stats
	prev := st.Clone()
	type scatterRep struct {
		stats engine.Stats
		err   error
	}
	// Indexed slice writes + WaitGroup instead of a result channel: each
	// scatter goroutine owns exactly reps[i], so the join is race-free and
	// nothing can park on a channel (goroleak-certified by construction).
	reps := make([]scatterRep, r.s)
	for len(seeds) > 0 {
		var wg sync.WaitGroup
		for i := 0; i < r.s; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				view := views[i]
				// Only this shard's in-range seeds: a vertex born after an
				// insertion that grew a different shard does not exist here,
				// and the engine sizes its scratch by the view.
				ns := view.NumVertices()
				ss := make([]graph.VertexID, 0, len(seeds))
				ms := make([]uint64, 0, len(seeds))
				for k, v := range seeds {
					if int(v) < ns {
						ss = append(ss, v)
						ms = append(ms, masks[k])
					}
				}
				if len(ss) == 0 {
					reps[i] = scatterRep{}
					return
				}
				stats, err := st.RunPushCtx(ctx, view, ss, ms)
				reps[i] = scatterRep{stats: stats, err: err}
			}(i)
		}
		wg.Wait()
		var firstErr error
		for i := 0; i < r.s; i++ {
			total.Add(reps[i].stats)
			if reps[i].err != nil && firstErr == nil {
				firstErr = reps[i].err
			}
		}
		if firstErr != nil {
			return total, firstErr
		}
		r.met.noteScatter(r.s)
		mStart := time.Now()
		seeds, masks = diffSeeds(prev, st)
		r.met.noteMerge(time.Since(mStart))
	}
	return total, nil
}

// runRounds is runRoundsCtx for the evaluations nothing can cancel: setup
// (Enable) and an admitted mutation's whole-graph maintenance.
func (r *Router) runRounds(views []*streamgraph.Flat, st *engine.State, seeds []graph.VertexID, masks []uint64) engine.Stats {
	stats, _ := r.runRoundsCtx(context.Background(), views, st, seeds, masks)
	return stats
}

// diffSeeds builds the next cross-shard frontier — vertex v carries slot
// j's bit when its slot-j value moved during the round — and catches
// prev up with cur, so prev is the next round's pre-round copy.
func diffSeeds(prev, cur *engine.State) ([]graph.VertexID, []uint64) {
	var (
		seeds []graph.VertexID
		masks []uint64
	)
	ca, stride, offs := cur.StrideViews()
	pa, _, _ := prev.StrideView(0)
	for v := 0; v < cur.N; v++ {
		base := v * stride
		var m uint64
		for j, off := range offs {
			if c := ca[base+off]; c != pa[base+off] {
				pa[base+off] = c
				m |= 1 << uint(j)
			}
		}
		if m != 0 {
			seeds = append(seeds, graph.VertexID(v))
			masks = append(masks, m)
		}
	}
	return seeds, masks
}

// seedsFromInit builds the first frontier of an incremental run: every
// vertex whose merged init differs from InitValue in any slot (the
// cross-shard merge is not triangle-consistent, so all of them must
// re-offer their bounds), with each query's source bit OR-ed in
// explicitly — a source whose SourceValue equals InitValue would
// otherwise never be seeded.
func seedsFromInit(st *engine.State, sources []graph.VertexID) ([]graph.VertexID, []uint64) {
	srcMask := make(map[graph.VertexID]uint64, len(sources))
	for j, s := range sources {
		srcMask[s] |= 1 << uint(j)
	}
	var (
		seeds []graph.VertexID
		masks []uint64
	)
	initVal := st.P.InitValue()
	arr, stride, offs := st.StrideViews()
	for v := 0; v < st.N; v++ {
		base := v * stride
		m := srcMask[graph.VertexID(v)]
		for j, off := range offs {
			if arr[base+off] != initVal {
				m |= 1 << uint(j)
			}
		}
		if m != 0 {
			seeds = append(seeds, graph.VertexID(v))
			masks = append(masks, m)
		}
	}
	return seeds, masks
}

func makeInit(n int, v uint64) []uint64 {
	out := make([]uint64, n)
	fillInit(out, v)
	return out
}

func fillInit(dst []uint64, v uint64) {
	for i := range dst {
		dst[i] = v
	}
}
