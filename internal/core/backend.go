package core

import (
	"context"
	"time"

	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/metrics"
	"tripoline/internal/streamgraph"
)

// Backend is the one serving surface of a Tripoline instance: everything
// the public facade (package tripoline) and the HTTP layer
// (internal/server) call. *System implements it over one streaming
// graph; *shard.Router implements it over S hash-partitioned Systems
// behind a versioned snapshot barrier, with Version naming a barrier
// global version instead of a snapshot version. Every evaluating or
// mutating call takes a context; the non-Ctx forms on the concrete types
// are sugar over these and deliberately not part of the interface.
type Backend interface {
	// Setup phase — not synchronized against serving.
	Enable(name string) error
	EnableCustom(p engine.Problem) error
	Enabled() []string
	EnableHistory(capacity int)
	RecordQueries(on bool)
	EnableResultCache(entries int)
	RegisterMetrics(reg *metrics.Registry)

	// Topology at the latest version.
	NumVertices() int
	NumEdges() int64
	Version() uint64
	Directed() bool
	Shards() int

	// Mutations: ctx gates admission only; an admitted mutation always
	// runs to completion, standing maintenance included.
	ApplyBatchCtx(ctx context.Context, batch []graph.Edge) (BatchReport, error)
	ApplyDeletionsCtx(ctx context.Context, batch []graph.Edge) (BatchReport, error)
	ReselectRoots(problem string) error

	// Queries: the engine observes ctx at superstep boundaries.
	QueryCtx(ctx context.Context, problem string, u graph.VertexID) (*QueryResult, error)
	QueryFullCtx(ctx context.Context, problem string, u graph.VertexID) (*QueryResult, error)
	QueryManyCtx(ctx context.Context, problem string, sources []graph.VertexID) (*MultiResult, error)
	QueryAtCtx(ctx context.Context, version uint64, problem string, u graph.VertexID) (*QueryResult, error)
	HistoryVersions() []uint64

	// Δ-result cache lookups (misses when the cache is disabled).
	CachedQuery(problem string, u graph.VertexID, minVersion uint64, staleOK bool) (res *QueryResult, staleBatches uint64, ok bool)
	CachedQueryAt(problem string, u graph.VertexID, version uint64) (*QueryResult, bool)
	ResultCacheMetrics() CacheMetrics

	// Subscriptions.
	SubscribeCtx(ctx context.Context, problem string, u graph.VertexID, buffer int) (*Subscription, error)
	Unsubscribe(sub *Subscription)
	Subscribers() int

	StandingMaintainTime(problem string) (time.Duration, error)
}

// NumVertices reports the vertex count of the latest snapshot.
func (s *System) NumVertices() int { return s.G.Acquire().NumVertices() }

// NumEdges reports the arc count of the latest snapshot.
func (s *System) NumEdges() int64 { return s.G.Acquire().NumEdges() }

// Version reports the latest snapshot version.
func (s *System) Version() uint64 { return s.G.Acquire().Version() }

// Directed reports the graph's edge orientation.
func (s *System) Directed() bool { return s.G.Directed() }

// Shards is 1: a System is one core.
func (s *System) Shards() int { return 1 }

// RegisterMetrics registers the backend's own instruments on reg — for
// a System the graph's mirror-maintenance counters (delta vs. full
// builds, bytes copied vs. walked, slab recycler traffic).
func (s *System) RegisterMetrics(reg *metrics.Registry) {
	s.G.SetMirrorMetrics(streamgraph.RegisterMirrorMetrics(reg))
}

// EnableResultCache turns on the Δ-result cache with the given LRU
// capacity (entries <= 0 selects DefaultCacheEntries). Every successful
// QueryCtx answer is cached; CachedQuery serves them under the
// stale=ok / min_version policy. Enabling must happen before serving
// starts (it is not synchronized against concurrent queries).
func (s *System) EnableResultCache(entries int) { s.cache = NewResultCache(entries) }

// CachedQuery serves a cached answer for (problem, u) under the serving
// policy of ResultCache.Get against the latest snapshot version.
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

// SubscribeCtx registers a subscription answered at the latest snapshot
// (see Evaluator.SubscribeCtx).
func (s *System) SubscribeCtx(ctx context.Context, problem string, u graph.VertexID, buffer int) (*Subscription, error) {
	return s.ev.SubscribeCtx(ctx, problem, u, buffer, s.pin)
}

// Unsubscribe deregisters sub and closes its frame channel. Idempotent.
func (s *System) Unsubscribe(sub *Subscription) { s.ev.Unsubscribe(sub) }

// Subscribers returns the number of registered subscriptions.
func (s *System) Subscribers() int { return s.ev.Subscribers() }
