// Package core implements the Tripoline system (§5): a shared-memory
// streaming graph processing system that supports generalized incremental
// evaluation of vertex-specific queries without a priori knowledge of
// their source vertices.
//
// The system composes four components, mirroring Figure 10 of the paper:
//
//   - the streaming graph engine (package streamgraph, Aspen-like): one
//     store behind a versioned snapshot barrier (store.go, barrier.go);
//   - the standing query evaluation module (package standing), which
//     incrementally maintains K pre-selected queries per standing set —
//     one set per distinct engine problem the enabled problems evaluate
//     (problems.go);
//   - the user query evaluation module, which answers arbitrary-source
//     queries via Δ-based incremental evaluation (package triangle);
//   - the programming interface: engine.Problem supplies the vertex
//     function plus the ⊕ / ⪰ triangle operators.
//
// The three runtime activities — applying graph updates, re-stabilizing
// standing queries, evaluating user queries — execute exclusively (in
// series), each internally parallel, exactly the configuration described
// in §5.
//
// The writer applies each batch to the one store and publishes its
// snapshot; one evaluator (evaluator.go) evaluates over the snapshot's
// flat mirror (view.go).
package core

import (
	"context"
	"fmt"
	"time"

	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/metrics"
	"tripoline/internal/streamgraph"
)

// DefaultK is the default upper bound on the standing queries per
// standing set (§6.1's K): a set is built at this width, then narrowed to
// the roots its meet uses (standing.Manager.Narrow).
const DefaultK = 16

// QueryResult reports one user-query evaluation.
type QueryResult struct {
	Problem string
	Source  graph.VertexID
	// Values holds the converged per-vertex values: width 1 for the six
	// simple problems, width props.NumRadiiSources for Radii, and the BFS
	// levels for SSNSP.
	Values []uint64
	Width  int
	// Counts holds SSNSP's number-of-shortest-paths array (nil otherwise).
	Counts []uint64
	// Radius is Radii's scalar estimate (0 otherwise).
	Radius uint64
	// Stats is the engine work; for SSNSP it sums both rounds, with the
	// counting round also available separately.
	Stats      engine.Stats
	CountStats engine.Stats
	Elapsed    time.Duration
	// Incremental reports whether Δ-based initialization was used.
	Incremental bool
	// StandingSlot and PropUR record Eq. 15's pick for u — the standing
	// root with the best property(u, r) — on incremental runs from a
	// standing set. The Δ-initialization meets over every root that no
	// other root dominates (standing.Manager.Meet); this one is its
	// first lane. StandingSlot indexes the set's Roots as narrowed
	// (standing.Manager.Narrow), not the top-K degree ranking.
	StandingSlot int
	PropUR       uint64
	// LanesMet counts the standing lanes the Δ-initialization met over,
	// summed over the problem's sources; the meet read LanesMet × N words.
	LanesMet int
	// Version is the version the result is valid for: the pinned view's
	// version for vertex-specific problems, the version the standing state
	// last converged at for the whole-graph problems, and the requested
	// version for QueryAt.
	Version uint64
}

// BatchReport summarizes one applied update batch.
type BatchReport struct {
	BatchEdges     int
	ChangedSources int
	// StandingElapsed is the wall time of the standing maintenance the
	// batch triggered, subscription refresh excluded.
	StandingElapsed time.Duration
	StandingStats   engine.Stats
	Version         uint64
	// Changed lists the distinct source vertices whose adjacency changed,
	// sorted: what drives whole-graph maintenance (CC resumption) and
	// cache invalidation.
	Changed []graph.VertexID
	// Subscription fan-out for this batch: registered subscribers at
	// refresh time, frames delivered, frames dropped on full channels,
	// and the wall time of the fused refresh (zero with no subscribers).
	Subscribers    int
	FramesSent     int
	FramesDropped  int
	RefreshElapsed time.Duration
}

// System is a Tripoline instance: one graph store behind a versioned
// snapshot barrier, and one evaluator over it.
type System struct {
	// g is the store: its latest snapshot is the barrier's latest, and the
	// apply token's holder is its only mutator.
	g *streamgraph.Graph
	// bar publishes the store's snapshot after every admitted mutation,
	// and its ring is the history window.
	bar *barrier
	// tok serializes mutations (capacity 1). Admission honors the caller's
	// context; once the token is held the mutation always completes.
	tok chan struct{}
	// ev holds the enabled problems, their standing sets and maintained
	// answers, the subscriptions, and the lock that pairs the standing
	// state with a version: the writer publishes every snapshot under
	// ev.mu before it maintains ev onto it (so a reader can never pair
	// pre-deletion standing bounds, possibly too good, with a
	// post-deletion view), and readers pin the latest snapshot under it.
	ev *evaluator

	histOn bool
	// cache, when non-nil, is the Δ-result cache (see cache.go).
	cache *ResultCache
}

// NewSystem wraps a streaming graph, of either orientation, as a System's
// store. k bounds the standing queries per standing set (clamped to
// [1, 64]; 0 selects DefaultK): each set is built at width k, then
// narrowed to the roots its meet uses. The System starts at g's version,
// and since every batch — an empty one included — publishes the store's
// next version, g's version advances with the System's: g.Acquire() is
// always the System's latest version, and g.Seam() reaches the mirrors it
// evaluates over. Mutate through the System, not through g.
func NewSystem(g *streamgraph.Graph, k int) *System {
	return &System{
		g:   g,
		bar: newBarrier(g.Acquire()),
		tok: make(chan struct{}, 1),
		ev:  newEvaluator(k, g.Directed()),
	}
}

// Enable sets up the named problem ("BFS", "SSSP", "SSWP", "SSNP",
// "Viterbi", "SSR", "Radii", "SSNSP", "PageRank", "CC" — see
// LookupProblem) over the latest version (see evaluator.Enable).
func (s *System) Enable(name string) error {
	def, ok := LookupProblem(name)
	if !ok {
		return fmt.Errorf("core: unknown problem %q: %w", name, ErrUnknownProblem)
	}
	return s.ev.Enable(def, s.current())
}

// EnableCustom sets up standing queries for a user-defined problem: any
// engine.Problem whose Relax is monotonic and async-safe and whose
// Combine/Better satisfy the graph triangle inequality for the property
// it computes (Definition 3.1) gets the full Δ-based treatment — the
// programming interface of §5. The problem is registered under
// p.Name(), which must not be a built-in's name (ErrReservedName) nor
// collide with an enabled problem.
func (s *System) EnableCustom(p engine.Problem) error {
	def, err := CustomProblem(p)
	if err != nil {
		return err
	}
	return s.ev.Enable(def, s.current())
}

// Enabled lists enabled problems in enable order.
func (s *System) Enabled() []string { return s.ev.Enabled() }

// StandingMaintainTime returns the wall time and the engine work of the
// most recent (re-)evaluation of the standing set that bounds the named
// problem, or the time of its maintained answer (see
// evaluator.MaintainTime). After Enable or ReselectRoots on a directed
// graph the work is q⁻¹ evaluated at K plus q evaluated at the width the
// set kept (standing.Manager.Reroot), not both at K.
func (s *System) StandingMaintainTime(name string) (time.Duration, engine.Stats, error) {
	return s.ev.MaintainTime(name)
}

// ReselectRoots re-roots the standing set that bounds the named problem by
// the rule Enable built it with — the top-K out-degree vertices of the
// latest version, narrowed to the roots their meet uses and evaluated
// (see evaluator.ReselectRoots) — so the roots follow the graph's
// degrees as it streams. Re-rooting rewrites the standing arrays
// wholesale over the writer's view, so it runs under the apply token,
// like a batch.
func (s *System) ReselectRoots(problem string) error {
	s.tok <- struct{}{}
	defer s.release()
	return s.ev.ReselectRoots(problem, s.current())
}

// QueryCtx answers a user query with Δ-based incremental evaluation
// under cooperative cancellation: the engine checks ctx at every
// superstep boundary, so a deadline or a dropped client stops the
// convergence loop promptly and the call returns an ErrCanceled-wrapping
// error (see evaluator.Query).
func (s *System) QueryCtx(ctx context.Context, name string, u graph.VertexID) (*QueryResult, error) {
	res, err := s.ev.Query(ctx, name, u, s.bar.pinLatest)
	if err != nil {
		return nil, err
	}
	s.cache.Put(res)
	return res, nil
}

// QueryFullCtx answers a user query with a from-scratch
// (non-incremental) evaluation — the baseline the paper's speedups
// compare against — under cooperative cancellation (see QueryCtx).
func (s *System) QueryFullCtx(ctx context.Context, name string, u graph.VertexID) (*QueryResult, error) {
	view, release := s.bar.pinLatest()
	defer release()
	return s.ev.QueryFull(ctx, name, u, view)
}

// EnableHistory retains up to capacity entries (minimum 1) for QueryAt,
// the latest included: the evolving-graph analysis scenario of
// Chronos/GraphTau (§7). A retained snapshot holds its mirror, which is
// the store, so each retained version costs O(E) bytes — a copy of the
// arcs — not the O(batch) a persistent tree would share.
func (s *System) EnableHistory(capacity int) {
	s.histOn = true
	s.bar.widen(capacity)
}

// HistoryVersions lists the retained versions in ascending order (nil
// when history is disabled).
func (s *System) HistoryVersions() []uint64 {
	if !s.histOn {
		return nil
	}
	return s.bar.versions()
}

// QueryAtCtx answers a user query against the retained snapshot with the
// given version, via full evaluation (evaluator.QueryFull) under
// cooperative cancellation — historical queries are the most expensive
// kind, so deadlines matter most here. The standing state tracks only the
// latest version, so Δ-initialization is not valid against older ones (its
// bounds could be too good: edges present now may be absent then). The
// source must be in range for the queried version, which may have fewer
// vertices than the latest. A retained snapshot holds its mirror, and the
// query pins it in the same lookup (barrier.pinAt).
func (s *System) QueryAtCtx(ctx context.Context, version uint64, problem string, u graph.VertexID) (*QueryResult, error) {
	if !s.histOn {
		return nil, fmt.Errorf("core: history not enabled: %w", ErrNoSuchVersion)
	}
	view, release, err := s.bar.pinAt(version)
	if err != nil {
		return nil, err
	}
	defer release()
	return s.ev.QueryFull(ctx, problem, u, view)
}

// NumVertices reports the vertex count of the latest version.
func (s *System) NumVertices() int { return s.bar.latest().NumVertices() }

// NumEdges reports the arc count of the latest version (both arcs of an
// undirected edge count).
func (s *System) NumEdges() int64 { return s.bar.latest().NumEdges() }

// Version reports the latest version: +1 per admitted mutation.
func (s *System) Version() uint64 { return s.bar.latest().Version() }

// Directed reports the graph's edge orientation.
func (s *System) Directed() bool { return s.g.Directed() }

// RegisterMetrics registers the store's mirror-maintenance counters
// (delta vs. full builds, bytes copied vs. walked, slab recycler traffic)
// on reg.
func (s *System) RegisterMetrics(reg *metrics.Registry) {
	s.g.SetMirrorMetrics(streamgraph.RegisterMirrorMetrics(reg))
}

// EnableResultCache turns on the Δ-result cache with the given LRU
// capacity (entries <= 0 selects DefaultCacheEntries); a fixed budget of
// resident answer bytes bounds it as well (see cache.go). Every successful
// QueryCtx answer is cached; CachedQuery serves them under the
// stale=ok / min_version policy. Enabling must happen before serving
// starts (it is not synchronized against concurrent queries).
func (s *System) EnableResultCache(entries int) { s.cache = NewResultCache(entries) }

// CachedQuery serves a cached answer for (problem, u) under the serving
// policy of ResultCache.Get against the latest version.
func (s *System) CachedQuery(problem string, u graph.VertexID, minVersion uint64, staleOK bool) (res *QueryResult, staleBatches uint64, ok bool) {
	return s.cache.Get(problem, u, minVersion, staleOK, s.Version())
}

// CachedQueryAt serves a cached answer whose version matches exactly.
func (s *System) CachedQueryAt(problem string, u graph.VertexID, version uint64) (*QueryResult, bool) {
	return s.cache.GetAt(problem, u, version)
}

// ResultCacheMetrics reports cache activity (zero value when the cache
// is disabled).
func (s *System) ResultCacheMetrics() CacheMetrics { return s.cache.Metrics() }

// SubscribeCtx registers a subscription answered at the latest version;
// the writer refreshes it after every batch that changes the graph (see
// evaluator.SubscribeCtx).
func (s *System) SubscribeCtx(ctx context.Context, problem string, u graph.VertexID, buffer int) (*Subscription, error) {
	return s.ev.SubscribeCtx(ctx, problem, u, buffer, s.bar.pinLatest)
}

// Unsubscribe deregisters sub and closes its frame channel. Idempotent.
func (s *System) Unsubscribe(sub *Subscription) { s.ev.Unsubscribe(sub) }

// Subscribers returns the number of registered subscriptions.
func (s *System) Subscribers() int { return s.ev.Subscribers() }
