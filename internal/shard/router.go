// Package shard partitions one logical streaming graph across S
// independent core.System instances — each with its own flat mirror
// chain, standing manager, slab recycler, and writer path — behind a
// Router that preserves the single-system API and its exact answers.
//
// Partitioning is by edge ownership: a directed edge belongs to its
// source's shard, an undirected edge to the shard of its smaller
// endpoint (so both mirrored arcs land together and first-wins dedup
// stays local). Every shard spans the full global vertex range; only the
// edge set is split, making the union graph a disjoint union of the
// shard graphs.
//
// Consistency across shards is a versioned snapshot barrier: each
// admitted mutation advances one global version and publishes the
// per-shard version vector plus the per-shard snapshots it pins
// (barrier.go). Queries scatter over the pinned vector — never over
// "whatever each shard currently has" — so a global version always
// names one coherent cut of the partitioned graph, and QueryAt can
// address any retained cut.
//
// What a named problem is comes from core's table (core.ProblemDef); the
// router only supplies how an evaluation gathers:
//
//   - Problems with a standing set (every Base: the simple problems,
//     Radii's 16 SSSP slots, SSNSP's BFS round) are enabled by name on
//     every shard. Each shard folds its best standing Δ-bound into a
//     shared initialization (core.System.DeltaMergeInto), then
//     scatter/gather rounds run every shard's kernel against one shared
//     CAS-relaxed value array until no value moves — the min-merge for
//     the SSSP family, executed in place — and the definition's finish
//     step runs once over the union. The merged init is sound but not
//     triangle-consistent for the union, so every initialized vertex is
//     seeded (see query.go for the chain argument).
//   - PageRank and CC are maintained at the router — PageRank as a
//     warm-started float iteration over the union view, CC as a CCLabel
//     state resumed through the same scatter/gather rounds (the min-label
//     join across shard boundary vertices) — mirroring core's maintained
//     answers batch for batch so version stamps line up with a single
//     system's.
//
// A single-shard router routes every call straight to its one
// core.System, so S=1 is bit-identical to an unsharded deployment by
// construction; the differential checker's sharded replay
// (internal/check) verifies S>1 against it schedule by schedule.
package shard

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"tripoline/internal/core"
	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/metrics"
	"tripoline/internal/props"
	"tripoline/internal/streamgraph"
)

// Router hash-partitions a streaming graph across S core.System shards
// under a versioned cross-shard snapshot barrier. It implements
// core.Backend, so the facade and server treat it and a lone core.System
// interchangeably.
type Router struct {
	s        int
	directed bool

	graphs []*streamgraph.Graph
	shards []*core.System

	bar *barrier
	// tok serializes mutations (capacity 1): the holder is the only
	// writer of every shard graph and of the router's whole-graph
	// standing state. Admission honors the caller's context; once the
	// token is held the mutation always completes (matching core's
	// apply semantics).
	tok chan struct{}

	// defs holds the enabled problems' definitions; order preserves
	// enable order.
	order []string
	defs  map[string]core.ProblemDef

	// Whole-graph standing state, maintained by the token holder and
	// read by queries under wgMu. The maintainer computes off-lock (it
	// is the only writer) and swaps results in under the write lock, so
	// no engine run ever executes while holding wgMu.
	wgMu      sync.RWMutex
	prRanks   []float64
	prVersion uint64
	prLast    time.Duration
	ccSt      *engine.State
	ccVersion uint64
	ccLast    time.Duration

	histOn bool
	// cache, when non-nil, is the Δ-result cache of an S>1 router, keyed
	// by global version (S=1 uses its lone System's).
	cache *core.ResultCache
	met   *Metrics
}

// New creates a router over S empty shard graphs spanning n vertices.
// k is the GLOBAL standing-query budget per problem: each shard
// maintains ceil(k/S) standing queries over its own subgraph, so total
// standing memory and per-batch maintenance work match the unsharded
// system's (S=1 keeps k unchanged and is bit-identical to a plain
// core.System). Δ-initialization merges the best bound across all
// shards' roots, so query quality degrades only marginally versus k
// roots on the full graph. shards < 1 is treated as 1.
func New(n int, directed bool, shards, k int) *Router {
	if shards < 1 {
		shards = 1
	}
	if shards > 1 {
		// Normalize k exactly like core.NewSystem does, then split the
		// GLOBAL budget across shards: S shards × ceil(k/S) roots keeps
		// total standing maintenance work comparable to the unsharded
		// system instead of multiplying it by S. Δ-merge takes best-of
		// across every shard's roots, so fewer roots per shard only
		// weakens (never breaks) the warm-start bounds.
		if k == 0 {
			k = core.DefaultK
		}
		if k < 1 {
			k = 1
		}
		if k > 64 {
			k = 64
		}
		k = (k + shards - 1) / shards
	}
	r := &Router{
		s:        shards,
		directed: directed,
		tok:      make(chan struct{}, 1),
		defs:     make(map[string]core.ProblemDef),
	}
	snaps := make([]*streamgraph.Snapshot, shards)
	for i := 0; i < shards; i++ {
		g := streamgraph.New(n, directed)
		r.graphs = append(r.graphs, g)
		r.shards = append(r.shards, core.NewSystem(g, k))
		snaps[i] = g.Acquire()
	}
	r.bar = newBarrier(newEntry(0, make([]uint64, shards), snaps))
	return r
}

// newEntry builds a barrier entry, precomputing the union vertex count.
func newEntry(global uint64, vec []uint64, snaps []*streamgraph.Snapshot) *entry {
	e := &entry{global: global, vec: vec, snaps: snaps}
	for _, s := range snaps {
		if n := s.NumVertices(); n > e.n {
			e.n = n
		}
	}
	return e
}

// mix64 is the splitmix64 finalizer — the vertex-to-shard hash. A plain
// modulo would put consecutive vertex IDs (which generators and RMAT
// renumberings correlate with degree) on consecutive shards in lockstep.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ownerOf routes one edge: directed edges by source (a vertex's whole
// out-adjacency stays in one shard), undirected edges by the smaller
// endpoint (both mirrored arcs land together, so re-inserting the same
// logical edge always dedups against the same shard).
func (r *Router) ownerOf(e graph.Edge) int {
	v := e.Src
	if !r.directed && e.Dst < v {
		v = e.Dst
	}
	return int(mix64(uint64(v)) % uint64(r.s))
}

// split partitions a batch into per-shard sub-batches, preserving
// relative edge order within each shard.
func (r *Router) split(batch []graph.Edge) [][]graph.Edge {
	parts := make([][]graph.Edge, r.s)
	for _, e := range batch {
		i := r.ownerOf(e)
		parts[i] = append(parts[i], e)
	}
	return parts
}

// Shards reports the shard count.
func (r *Router) Shards() int { return r.s }

// single reports whether the router is in its one-shard fast path, where
// every call delegates to the lone core.System unchanged.
func (r *Router) single() bool { return r.s == 1 }

// Enable sets up the named problem. On a sharded router a problem with a
// standing set is enabled under its own name on every shard (each shard
// shares the set among its problems exactly like a lone System), while
// PageRank and CC initialize router-level whole-graph state over the union
// of the shards' mirrors. Enable is setup-phase API: like
// core.System.Enable it is not synchronized against concurrent mutations
// or queries.
func (r *Router) Enable(name string) error {
	if r.single() {
		if err := r.shards[0].Enable(name); err != nil {
			return err
		}
		r.order = append(r.order, name)
		return nil
	}
	def, ok := core.LookupProblem(name)
	if !ok {
		return fmt.Errorf("shard: unknown problem %q: %w", name, core.ErrUnknownProblem)
	}
	return r.enable(def, func(sys *core.System) error { return sys.Enable(name) })
}

// EnableCustom sets up standing queries for a user-defined triangle
// problem on every shard.
func (r *Router) EnableCustom(p engine.Problem) error {
	if r.single() {
		if err := r.shards[0].EnableCustom(p); err != nil {
			return err
		}
		r.order = append(r.order, p.Name())
		return nil
	}
	def, err := core.CustomProblem(p)
	if err != nil {
		return err
	}
	return r.enable(def, func(sys *core.System) error { return sys.EnableCustom(p) })
}

// enable registers def on an S>1 router: onShard enables it on each shard
// when it has a standing set, otherwise its whole-graph state is evaluated
// here over the latest entry.
func (r *Router) enable(def core.ProblemDef, onShard func(*core.System) error) error {
	if _, dup := r.defs[def.Name]; dup {
		return fmt.Errorf("shard: problem %s already enabled", def.Name)
	}
	if def.Base != nil {
		for _, sys := range r.shards {
			if err := onShard(sys); err != nil {
				return err
			}
		}
	} else {
		e := r.bar.latest()
		views, release := pinEntry(e)
		defer release()
		start := time.Now()
		if def.Name == "PageRank" {
			res := props.PageRank(unionOf(views), 0.85, 100, 1e-9)
			r.wgMu.Lock()
			r.prRanks, r.prVersion, r.prLast = res.Ranks, e.global, time.Since(start)
			r.wgMu.Unlock()
		} else {
			st, seeds, masks := props.NewCCState(e.n)
			r.runRounds(views, st, seeds, masks)
			r.wgMu.Lock()
			r.ccSt, r.ccVersion, r.ccLast = st, e.global, time.Since(start)
			r.wgMu.Unlock()
		}
	}
	r.defs[def.Name] = def
	r.order = append(r.order, def.Name)
	return nil
}

// Enabled lists enabled problems in enable order.
func (r *Router) Enabled() []string {
	if r.single() {
		return r.shards[0].Enabled()
	}
	return append([]string(nil), r.order...)
}

// ApplyBatchCtx inserts an edge batch, splitting it across shards and
// advancing the global version by one. Admission is context-based:
// cancellation is honored while waiting for the apply token, never
// after — an admitted mutation always completes so the barrier never
// publishes a half-applied vector.
func (r *Router) ApplyBatchCtx(ctx context.Context, batch []graph.Edge) (core.BatchReport, error) {
	if r.single() {
		return r.shards[0].ApplyBatchCtx(ctx, batch)
	}
	if err := r.admit(ctx); err != nil {
		return core.BatchReport{}, err
	}
	defer r.release()
	return r.apply(batch, false), nil
}

// ApplyDeletionsCtx removes an edge batch across shards, advancing the
// global version by one, with ApplyBatchCtx's admission semantics.
func (r *Router) ApplyDeletionsCtx(ctx context.Context, batch []graph.Edge) (core.BatchReport, error) {
	if r.single() {
		return r.shards[0].ApplyDeletionsCtx(ctx, batch)
	}
	if err := r.admit(ctx); err != nil {
		return core.BatchReport{}, err
	}
	defer r.release()
	return r.apply(batch, true), nil
}

// admit takes the apply token, honoring ctx while waiting. A context
// that is already done always rejects (matching core's admission) even
// when the token is free.
func (r *Router) admit(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return &engine.CanceledError{Cause: err}
	}
	select {
	case r.tok <- struct{}{}:
		return nil
	case <-ctx.Done():
		return &engine.CanceledError{Cause: ctx.Err()}
	}
}

func (r *Router) release() { <-r.tok }

// apply runs one admitted mutation: split by owner, apply the non-empty
// sub-batches to their shards concurrently, merge the changed-source
// lists, maintain the router-level whole-graph state, and publish the
// new barrier entry. Caller holds the apply token.
func (r *Router) apply(batch []graph.Edge, deletions bool) core.BatchReport {
	start := time.Now()
	parts := r.split(batch)
	prev := r.bar.latest()
	vec := append([]uint64(nil), prev.vec...)
	snaps := append([]*streamgraph.Snapshot(nil), prev.snaps...)

	// Indexed slice writes + WaitGroup instead of a result channel: each
	// apply goroutine owns exactly reps[i], so the join cannot park on a
	// channel operation (shard applies are not cancelable once admitted).
	reps := make([]*core.BatchReport, r.s)
	var wg sync.WaitGroup
	for i := range parts {
		if len(parts[i]) == 0 {
			// Empty sub-batch: the shard is skipped entirely and its
			// version-vector slot keeps its old value — shards advance at
			// different rates and the barrier entry records the skew.
			continue
		}
		wg.Add(1)
		go func(i int, part []graph.Edge) {
			defer wg.Done()
			var rep core.BatchReport
			if deletions {
				rep = r.shards[i].ApplyDeletions(part)
			} else {
				rep = r.shards[i].ApplyBatch(part)
			}
			reps[i] = &rep
		}(i, parts[i])
	}
	wg.Wait()
	agg := core.BatchReport{BatchEdges: len(batch)}
	changedSet := make(map[graph.VertexID]struct{})
	fan := 0
	for i, rep := range reps {
		if rep == nil {
			continue
		}
		fan++
		vec[i] = rep.Version
		snaps[i] = r.graphs[i].Acquire()
		agg.StandingStats.Add(rep.StandingStats)
		for _, v := range rep.Changed {
			changedSet[v] = struct{}{}
		}
	}
	changed := make([]graph.VertexID, 0, len(changedSet))
	for v := range changedSet {
		changed = append(changed, v)
	}
	sort.Slice(changed, func(a, b int) bool { return changed[a] < changed[b] })

	global := prev.global + 1
	e := newEntry(global, vec, snaps)
	agg.StandingStats.Add(r.maintainWholeGraph(e, changed, deletions))
	agg.Version = global
	agg.Changed = changed
	agg.ChangedSources = len(changed)
	agg.StandingElapsed = time.Since(start)

	r.bar.publish(e)
	r.cache.Advance(changed, prev.global, global)
	r.met.noteBatch(fan)
	return agg
}

// maintainWholeGraph re-stabilizes the router-level PageRank and CC
// state for the new barrier entry, mirroring core's maintained answers
// exactly so version stamps agree with a single system's:
// insertions always warm-start PageRank and resume CC (stamping the new
// global version even for no-op batches); deletions rebuild both from
// scratch only when the union actually changed, keeping the old stamps
// otherwise. Caller holds the apply token, so this goroutine is the only
// writer of the state — each result is computed off-lock and swapped in
// under wgMu. PageRank iterates over the union of the entry's mirrors; CC
// is a CCLabel state driven through the same scatter/gather rounds as any
// engine-driven query.
func (r *Router) maintainWholeGraph(e *entry, changed []graph.VertexID, deletions bool) engine.Stats {
	var stats engine.Stats
	_, prOn := r.defs["PageRank"]
	_, ccOn := r.defs["CC"]
	if !prOn && !ccOn {
		return stats
	}
	if deletions && len(changed) == 0 {
		return stats
	}
	views, release := pinEntry(e)
	defer release()
	if prOn {
		uv := unionOf(views)
		start := time.Now()
		var res *props.PageRankResult
		if deletions {
			res = props.PageRank(uv, 0.85, 100, 1e-9)
		} else {
			res = props.PageRankFrom(uv, r.prRanks, 0.85, 100, 1e-9)
		}
		stats.Add(engine.Stats{Iterations: res.Iterations})
		r.wgMu.Lock()
		r.prRanks, r.prVersion, r.prLast = res.Ranks, e.global, time.Since(start)
		r.wgMu.Unlock()
	}
	if ccOn {
		start := time.Now()
		var (
			st    *engine.State
			seeds []graph.VertexID
			masks []uint64
		)
		if deletions {
			st, seeds, masks = props.NewCCState(e.n)
		} else {
			// Resume mutates the state in place; clone first so concurrent
			// CC queries keep reading the previous converged labels until
			// the swap below.
			st = r.ccSt.Clone()
			props.GrowCCState(st, e.n)
			seeds, masks = changed, makeInit(len(changed), 1)
		}
		s := r.runRounds(views, st, seeds, masks)
		stats.Add(s)
		r.wgMu.Lock()
		r.ccSt, r.ccVersion, r.ccLast = st, e.global, time.Since(start)
		r.wgMu.Unlock()
	}
	return stats
}

// ---------------------------------------------------------------------
// Graph and serving accessors, mirroring core.System's surface.

// NumVertices reports the union vertex count at the latest global
// version.
func (r *Router) NumVertices() int {
	if r.single() {
		return r.graphs[0].Acquire().NumVertices()
	}
	return r.bar.latest().n
}

// NumEdges reports the union arc count at the latest global version.
// Shards are disjoint, so the union count is the sum.
func (r *Router) NumEdges() int64 {
	if r.single() {
		return r.graphs[0].Acquire().NumEdges()
	}
	var m int64
	for _, s := range r.bar.latest().snaps {
		m += s.NumEdges()
	}
	return m
}

// Version reports the latest global version (0 before any mutation, +1
// per admitted apply — the same sequence a single streamgraph emits).
func (r *Router) Version() uint64 {
	if r.single() {
		return r.graphs[0].Acquire().Version()
	}
	return r.bar.latest().global
}

// Directed reports the edge orientation shared by every shard.
func (r *Router) Directed() bool { return r.directed }

// EnableHistory begins retaining barrier entries for QueryAt: up to
// capacity global versions stay addressable, each pinning its per-shard
// snapshot vector (C-trees only — flat mirrors are pinned, or rebuilt,
// per query).
func (r *Router) EnableHistory(capacity int) {
	if r.single() {
		r.shards[0].EnableHistory(capacity)
		return
	}
	r.histOn = true
	r.bar.widen(capacity)
}

// HistoryVersions lists the retained global versions, oldest first (nil
// when history was never enabled).
func (r *Router) HistoryVersions() []uint64 {
	if r.single() {
		return r.shards[0].HistoryVersions()
	}
	if !r.histOn {
		return nil
	}
	return r.bar.versions()
}

// RecordQueries is core's root-reselection feed. The sharded router has
// no per-router standing roots to re-select (each shard selects over its
// own subgraph), so S>1 records nothing.
func (r *Router) RecordQueries(on bool) {
	if r.single() {
		r.shards[0].RecordQueries(on)
	}
}

// ReselectRoots re-roots the standing set that bounds the named problem.
// On a sharded router each shard re-selects over its own subgraph (without
// recorded query history that equals the per-shard top-degree rule,
// which is exactly how sharded roots were chosen at Enable time).
// Whole-graph problems have no standing roots and reject, mirroring
// core's error for the same cases.
func (r *Router) ReselectRoots(problem string) error {
	if r.single() {
		return r.shards[0].ReselectRoots(problem)
	}
	def, err := r.lookup(problem)
	if err != nil {
		return err
	}
	if def.Base == nil {
		return fmt.Errorf("shard: problem %q does not use standing roots", problem)
	}
	for _, sys := range r.shards {
		if err := sys.ReselectRoots(problem); err != nil {
			return err
		}
	}
	return nil
}

// EnableResultCache turns on the global-version-keyed Δ-result cache.
func (r *Router) EnableResultCache(entries int) {
	if r.single() {
		r.shards[0].EnableResultCache(entries)
		return
	}
	r.cache = core.NewResultCache(entries)
}

// CachedQuery serves a cached answer under the stale=ok / min_version
// policy against the latest global version (see core.System.CachedQuery).
func (r *Router) CachedQuery(problem string, u graph.VertexID, minVersion uint64, staleOK bool) (*core.QueryResult, uint64, bool) {
	if r.single() {
		return r.shards[0].CachedQuery(problem, u, minVersion, staleOK)
	}
	return r.cache.Get(problem, u, minVersion, staleOK, r.bar.latest().global)
}

// CachedQueryAt serves a cached answer whose global version matches
// exactly.
func (r *Router) CachedQueryAt(problem string, u graph.VertexID, version uint64) (*core.QueryResult, bool) {
	if r.single() {
		return r.shards[0].CachedQueryAt(problem, u, version)
	}
	return r.cache.GetAt(problem, u, version)
}

// ResultCacheMetrics reports cache activity (zero value when disabled).
func (r *Router) ResultCacheMetrics() core.CacheMetrics {
	if r.single() {
		return r.shards[0].ResultCacheMetrics()
	}
	return r.cache.Metrics()
}

// SubscribeCtx registers a standing subscription. Subscriptions push
// per-batch deltas from inside the writer's refresh window, which on a
// sharded router would require a cross-shard ordered merge of S
// independent refresh streams — not yet built, so S>1 reports
// ErrSubscribeUnsupported and the serving layer degrades to polling.
func (r *Router) SubscribeCtx(ctx context.Context, problem string, u graph.VertexID, buffer int) (*core.Subscription, error) {
	if r.single() {
		return r.shards[0].SubscribeCtx(ctx, problem, u, buffer)
	}
	return nil, fmt.Errorf("shard: subscriptions on a %d-shard router: %w", r.s, core.ErrSubscribeUnsupported)
}

// Unsubscribe closes a subscription (no-op on S>1, which never hands
// one out).
func (r *Router) Unsubscribe(sub *core.Subscription) {
	if r.single() {
		r.shards[0].Unsubscribe(sub)
	}
}

// Subscribers reports the registered subscription count.
func (r *Router) Subscribers() int {
	if r.single() {
		return r.shards[0].Subscribers()
	}
	return 0
}

// StandingMaintainTime reports the most recent standing re-stabilization
// wall time for the named problem: the slowest shard's standing set
// (shards maintain concurrently), or the router's own pass for the
// whole-graph problems.
func (r *Router) StandingMaintainTime(name string) (time.Duration, error) {
	if r.single() {
		return r.shards[0].StandingMaintainTime(name)
	}
	def, err := r.lookup(name)
	if err != nil {
		return 0, err
	}
	if def.Base == nil {
		r.wgMu.RLock()
		defer r.wgMu.RUnlock()
		if name == "PageRank" {
			return r.prLast, nil
		}
		return r.ccLast, nil
	}
	var worst time.Duration
	for _, sys := range r.shards {
		d, err := sys.StandingMaintainTime(name)
		if err != nil {
			return 0, err
		}
		if d > worst {
			worst = d
		}
	}
	return worst, nil
}

// RegisterMetrics registers the router's tripoline_shard_* instruments
// on reg and points every shard's mirror maintenance at one shared
// instrument block, so the mirror counters aggregate across shards by
// construction.
func (r *Router) RegisterMetrics(reg *metrics.Registry) {
	m := streamgraph.RegisterMirrorMetrics(reg)
	for _, g := range r.graphs {
		g.SetMirrorMetrics(m)
	}
	r.met = registerMetrics(reg)
}

// lookup resolves an enabled problem's definition on an S>1 router.
func (r *Router) lookup(name string) (core.ProblemDef, error) {
	def, ok := r.defs[name]
	if !ok {
		return def, fmt.Errorf("shard: problem %q not enabled: %w", name, core.ErrUnknownProblem)
	}
	return def, nil
}

// checkSource validates a query source against a barrier entry's union
// vertex count.
func checkSource(u graph.VertexID, e *entry) error {
	if int(u) >= e.n {
		return fmt.Errorf("shard: source %d out of range (graph has %d vertices): %w",
			u, e.n, core.ErrSourceOutOfRange)
	}
	return nil
}
