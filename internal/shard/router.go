// Package shard partitions one logical streaming graph across S
// core.System shards — each with its own C-tree store, flat mirror chain,
// slab recycler and writer path — behind a Router that preserves the
// single-system API and evaluates every query exactly as a lone
// core.System does.
//
// Partitioning is by arc tail: every arc is stored on the shard that owns
// its source vertex (a byte table, a pure function of the vertex). The
// router mirrors undirected edges into their two arcs before it splits a
// batch, so every shard is a directed store and each vertex's whole
// out-adjacency — in the destination order a lone mirror holds — lives on
// one shard. Every shard spans the global vertex range it has seen; only
// the arc set is split, so the union graph is a disjoint union of the
// shard graphs.
//
// Consistency across shards is a versioned snapshot barrier: each
// admitted mutation advances one global version and publishes the
// per-shard version vector plus the per-shard snapshots it pins
// (barrier.go). A query evaluates over one entry's S mirrors, pinned once
// (view.go) — never over "whatever each shard currently has" — so a global
// version always names one coherent cut of the partitioned graph, and
// QueryAt can address any retained cut.
//
// Evaluation is not partitioned. The union of an entry's mirrors is one
// core.View — OutSpan(v) is one span, on v's owner shard — and one
// core.Evaluator runs over it: the problem table, one standing set per
// engine problem with the global K roots (the top-degree vertices of the
// union, the roots a lone System picks), the maintained PageRank and CC
// answers, Δ-initialization seeded at the source only, the batched and the
// full evaluations. Sharding is write parallelism — shards insert and
// patch their mirrors concurrently — plus the snapshot barrier; a shard is
// a core.System with nothing enabled.
//
// The writer holds the apply token, applies the sub-batches concurrently,
// builds the new entry, then takes the evaluator's lock exclusively,
// publishes the entry, maintains the standing sets over its union,
// refreshes the evaluator's subscriptions on it and releases. A reader
// takes the lock shared, reads the latest entry, pins it and
// Δ-initializes, and runs the engine outside the lock: core's pinShared
// contract, so a reader never pairs standing bounds with an entry they
// were not maintained for. Subscriptions and query recording are the
// evaluator's too, so they work the same at every shard count.
//
// One code path serves every S: a one-shard router is the union code over
// a single shard. The differential checker's sharded replay
// (internal/check) verifies a router against a lone core.System schedule
// by schedule.
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
	"tripoline/internal/streamgraph"
)

// maxShards bounds the shard count: a vertex's owner is one byte.
const maxShards = 256

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
	// writer of every shard graph, of the owner table and of the
	// evaluator's standing state. Admission honors the caller's context;
	// once the token is held the mutation always completes (matching
	// core's apply semantics).
	tok chan struct{}

	// ev evaluates the router's queries over the union of a barrier entry's
	// mirrors and holds its standing sets, maintained answers,
	// subscriptions and recorded query sources.
	ev *core.Evaluator
	// tr is the transpose of the union the writer last maintained over
	// (writerUnion.Transposed), nil until a directed standing set asks for
	// one. Token holder only.
	tr *streamgraph.Flat
	// owner maps each vertex of the union to the shard that stores its
	// out-arcs. The token holder grows it with the union's vertex count;
	// entries share it, each reading only the prefix it covers.
	owner []uint8

	histOn bool
	// cache, when non-nil, is the Δ-result cache, keyed by global version.
	cache *core.ResultCache
	met   *Metrics
}

// New creates a router over S empty shard graphs spanning n vertices. k is
// the standing-query budget per problem, global as on a lone core.System:
// the router keeps one standing set per engine problem, over the union of
// its shards, at the same k roots a System over the whole graph would
// pick. shards < 1 is treated as 1, and shards > 256 as 256.
func New(n int, directed bool, shards, k int) *Router {
	shards = min(max(shards, 1), maxShards)
	r := &Router{
		s:        shards,
		directed: directed,
		tok:      make(chan struct{}, 1),
		ev:       core.NewEvaluator(k, directed),
	}
	// Arcs are routed by their tail, so every shard stores directed arcs
	// whatever the graph's orientation (apply mirrors undirected edges
	// before it splits them).
	snaps := make([]*streamgraph.Snapshot, shards)
	for i := 0; i < shards; i++ {
		g := streamgraph.New(n, true)
		r.graphs = append(r.graphs, g)
		r.shards = append(r.shards, core.NewSystem(g, k))
		snaps[i] = g.Acquire()
	}
	r.bar = newBarrier(r.newEntry(0, make([]uint64, shards), snaps, make([]bool, shards)))
	return r
}

// newEntry builds a barrier entry, precomputing the union vertex count and
// growing the owner table to cover it. applied marks the shards the
// entry's mutation reached. Caller holds the apply token (or is New).
func (r *Router) newEntry(global uint64, vec []uint64, snaps []*streamgraph.Snapshot, applied []bool) *entry {
	e := &entry{global: global, vec: vec, snaps: snaps, applied: applied}
	for _, s := range snaps {
		if n := s.NumVertices(); n > e.n {
			e.n = n
		}
	}
	for v := len(r.owner); v < e.n; v++ {
		r.owner = append(r.owner, uint8(r.shardOf(graph.VertexID(v))))
	}
	e.owner = r.owner
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

// shardOf names the shard that stores v's out-arcs.
func (r *Router) shardOf(v graph.VertexID) int {
	return int(mix64(uint64(v)) % uint64(r.s))
}

// arcs returns the arcs a batch stores or deletes: the edges themselves
// on a directed graph, each edge followed by its mirror on an undirected
// one — the order an undirected streamgraph offers them in, so first-wins
// deduplication keeps the same arc on every shard count.
func (r *Router) arcs(batch []graph.Edge) []graph.Edge {
	if r.directed {
		return batch
	}
	out := make([]graph.Edge, 0, 2*len(batch))
	for _, e := range batch {
		out = append(out, e, graph.Edge{Src: e.Dst, Dst: e.Src, W: e.W})
	}
	return out
}

// split routes arcs to their tails' shards, preserving relative order
// within each shard.
func (r *Router) split(arcs []graph.Edge) [][]graph.Edge {
	parts := make([][]graph.Edge, r.s)
	for _, a := range arcs {
		i := r.shardOf(a.Src)
		parts[i] = append(parts[i], a)
	}
	return parts
}

// Shards reports the shard count.
func (r *Router) Shards() int { return r.s }

// Enable sets up the named problem: the evaluator sets it up over the
// union of the latest entry's mirrors (see core.Evaluator.Enable). Enable
// is setup-phase API: like core.System.Enable it is not synchronized
// against concurrent mutations or queries.
func (r *Router) Enable(name string) error {
	def, ok := core.LookupProblem(name)
	if !ok {
		return fmt.Errorf("shard: unknown problem %q: %w", name, core.ErrUnknownProblem)
	}
	return r.ev.Enable(def, r.current(r.bar.latest()))
}

// EnableCustom sets up standing queries for a user-defined triangle
// problem.
func (r *Router) EnableCustom(p engine.Problem) error {
	def, err := core.CustomProblem(p)
	if err != nil {
		return err
	}
	return r.ev.Enable(def, r.current(r.bar.latest()))
}

// Enabled lists enabled problems in enable order.
func (r *Router) Enabled() []string { return r.ev.Enabled() }

// ApplyBatchCtx inserts an edge batch, splitting it across shards and
// advancing the global version by one. Admission is context-based:
// cancellation is honored while waiting for the apply token, never
// after — an admitted mutation always completes so the barrier never
// publishes a half-applied vector.
func (r *Router) ApplyBatchCtx(ctx context.Context, batch []graph.Edge) (core.BatchReport, error) {
	if err := r.admit(ctx); err != nil {
		return core.BatchReport{}, err
	}
	defer r.release()
	return r.apply(batch, false), nil
}

// ApplyDeletionsCtx removes an edge batch across shards, advancing the
// global version by one, with ApplyBatchCtx's admission semantics.
func (r *Router) ApplyDeletionsCtx(ctx context.Context, batch []graph.Edge) (core.BatchReport, error) {
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

// apply runs one admitted mutation: route the batch's arcs by tail, apply
// the non-empty sub-batches to their shards concurrently, build the new
// barrier entry, then publish the entry and maintain the evaluator's
// standing state and subscriptions over its union in one exclusive
// window. Caller holds the apply token.
func (r *Router) apply(batch []graph.Edge, deletions bool) core.BatchReport {
	start := time.Now()
	prev := r.bar.latest()
	var resolved []graph.Edge
	if deletions {
		// Stored weights, resolved over the union before the shards forget
		// them (see core.ResolveDeletionWeights).
		resolved = core.ResolveDeletionWeights(r.current(prev), batch)
	}
	parts := r.split(r.arcs(batch))
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
	applied := make([]bool, r.s)
	fan := 0
	var changed []graph.VertexID
	for i, rep := range reps {
		if rep == nil {
			continue
		}
		fan++
		applied[i] = true
		vec[i] = rep.Version
		snaps[i] = r.graphs[i].Acquire()
		// Shards own disjoint tails, so their changed sources are disjoint.
		changed = append(changed, rep.Changed...)
	}
	sort.Slice(changed, func(a, b int) bool { return changed[a] < changed[b] })

	e := r.newEntry(prev.global+1, vec, snaps, applied)
	publish := func() { r.bar.publish(e) }
	var agg core.BatchReport
	switch {
	case !deletions:
		agg = r.ev.Inserted(r.current(e), changed, publish)
	case len(changed) > 0:
		agg = r.ev.Deleted(r.current(e), resolved, publish)
	default:
		r.ev.Stamp(e.global, publish)
	}
	agg.StandingElapsed = time.Since(start) - agg.RefreshElapsed
	agg.BatchEdges, agg.ChangedSources, agg.Version, agg.Changed = len(batch), len(changed), e.global, changed
	r.cache.Advance(changed, prev.global, e.global)
	r.met.noteBatch(fan)
	return agg
}

// ---------------------------------------------------------------------
// Graph and serving accessors, mirroring core.System's surface.

// NumVertices reports the union vertex count at the latest global
// version.
func (r *Router) NumVertices() int { return r.bar.latest().n }

// NumEdges reports the union arc count at the latest global version.
// Shards store disjoint arcs — an undirected edge's two arcs on their own
// tails' shards — so the union count is the sum.
func (r *Router) NumEdges() int64 {
	var m int64
	for _, s := range r.bar.latest().snaps {
		m += s.NumEdges()
	}
	return m
}

// Version reports the latest global version (0 before any mutation, +1
// per admitted apply — the same sequence a single streamgraph emits).
func (r *Router) Version() uint64 { return r.bar.latest().global }

// Directed reports the logical graph's edge orientation (the shards
// themselves store directed arcs).
func (r *Router) Directed() bool { return r.directed }

// EnableHistory begins retaining barrier entries for QueryAt: up to
// capacity global versions stay addressable, each pinning its per-shard
// snapshot vector (C-trees only — flat mirrors are pinned, or rebuilt,
// per query).
func (r *Router) EnableHistory(capacity int) {
	r.histOn = true
	r.bar.widen(capacity)
}

// HistoryVersions lists the retained global versions, oldest first (nil
// when history was never enabled).
func (r *Router) HistoryVersions() []uint64 {
	if !r.histOn {
		return nil
	}
	return r.bar.versions()
}

// RecordQueries turns query-source recording on or off (see
// core.Evaluator.RecordQueries).
func (r *Router) RecordQueries(on bool) { r.ev.RecordQueries(on) }

// ReselectRoots re-roots the standing set that bounds the named problem:
// the evaluator's one set, re-rooted over the union of the latest entry's
// mirrors under the apply token from the recorded query distribution (see
// core.Evaluator.ReselectRoots); without recorded query history the
// selection is the top-degree rule the roots were chosen by at Enable.
func (r *Router) ReselectRoots(problem string) error {
	r.tok <- struct{}{}
	defer r.release()
	return r.ev.ReselectRoots(problem, func() core.View { return r.current(r.bar.latest()) })
}

// EnableResultCache turns on the global-version-keyed Δ-result cache.
func (r *Router) EnableResultCache(entries int) { r.cache = core.NewResultCache(entries) }

// CachedQuery serves a cached answer under the stale=ok / min_version
// policy against the latest global version (see core.System.CachedQuery).
func (r *Router) CachedQuery(problem string, u graph.VertexID, minVersion uint64, staleOK bool) (*core.QueryResult, uint64, bool) {
	return r.cache.Get(problem, u, minVersion, staleOK, r.bar.latest().global)
}

// CachedQueryAt serves a cached answer whose global version matches
// exactly.
func (r *Router) CachedQueryAt(problem string, u graph.VertexID, version uint64) (*core.QueryResult, bool) {
	return r.cache.GetAt(problem, u, version)
}

// ResultCacheMetrics reports cache activity (zero value when disabled).
func (r *Router) ResultCacheMetrics() core.CacheMetrics { return r.cache.Metrics() }

// SubscribeCtx registers a subscription answered at the latest global
// version; the writer refreshes it after every batch that changes the
// union (see core.Evaluator.SubscribeCtx).
func (r *Router) SubscribeCtx(ctx context.Context, problem string, u graph.VertexID, buffer int) (*core.Subscription, error) {
	return r.ev.SubscribeCtx(ctx, problem, u, buffer, r.pinLatest)
}

// Unsubscribe deregisters sub and closes its frame channel. Idempotent.
func (r *Router) Unsubscribe(sub *core.Subscription) { r.ev.Unsubscribe(sub) }

// Subscribers reports the registered subscription count.
func (r *Router) Subscribers() int { return r.ev.Subscribers() }

// StandingMaintainTime reports the most recent standing re-stabilization
// wall time for the named problem (see core.Evaluator.MaintainTime).
func (r *Router) StandingMaintainTime(name string) (time.Duration, error) {
	return r.ev.MaintainTime(name)
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
