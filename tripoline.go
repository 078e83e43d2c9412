// Package tripoline is a streaming graph processing system with
// generalized incremental evaluation of vertex-specific queries, a Go
// implementation of "Tripoline: Generalized Incremental Graph Processing
// via Graph Triangle Inequality" (EuroSys 2021).
//
// A Graph grows by batches of weighted edge insertions. For each enabled
// problem (BFS, SSSP, SSWP, SSNP, Viterbi, SSR, Radii, SSNSP — plus the
// whole-graph PageRank and CC), the system keeps up to K standing queries
// rooted at high-degree vertices incrementally up to date — the K
// top-degree roots narrowed to those a sample of queries' Δ-initializations
// use (on min/max problems usually one). A user query
// with an arbitrary source vertex u is then answered incrementally: the
// problem's graph triangle inequality turns the standing query's
// converged property array into a valid warm-start initialization
// Δ(u,r)[x] = property(u,r) ⊕ property(r,x), from which a monotonic
// async-safe evaluation converges to exactly the from-scratch result —
// typically after a small fraction of the work.
//
// Quick start:
//
//	g := tripoline.NewGraph(numVertices, tripoline.Undirected)
//	g.InsertEdges(initialEdges)
//	sys := tripoline.NewSystem(g, tripoline.WithStandingQueries(16))
//	sys.Enable("SSWP")
//	sys.ApplyBatch(moreEdges)          // stream; standing queries follow
//	res, _ := sys.Query("SSWP", u)     // incremental, any source u
//
//	// Under a deadline: the engine observes ctx at superstep
//	// boundaries and returns an error matching ErrCanceled.
//	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
//	defer cancel()
//	res, err := sys.QueryCtx(ctx, "SSWP", u)
//
// Every evaluating or mutating call has this context form; the plain
// forms (Query, ApplyBatch, …) run under context.Background(). History
// retention, query recording and the Δ-result cache are fixed at
// construction through options (WithHistory, WithQueryRecording,
// WithResultCache) — there are no post-construction toggles.
//
// Failures are reported through the sentinel errors ErrUnknownProblem,
// ErrSourceOutOfRange, ErrNoSuchVersion and ErrCanceled (test with
// errors.Is). Cancellation is always safe: a user query evaluates on
// private state, so abandoning it never perturbs the standing queries.
//
// Custom problems implement the Problem interface (the vertex function via
// Relax/Better plus the triangle operators Combine/Better) and can be
// registered alongside the built-ins; see the examples directory.
package tripoline

import (
	"context"
	"errors"
	"io"

	"tripoline/internal/core"
	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/props"
	"tripoline/internal/streamgraph"
)

// Sentinel errors returned (wrapped) by System methods; test with
// errors.Is.
var (
	// ErrUnknownProblem reports a problem name that is not recognized or
	// not enabled on this system.
	ErrUnknownProblem = core.ErrUnknownProblem
	// ErrSourceOutOfRange reports a query source ≥ the vertex count.
	ErrSourceOutOfRange = core.ErrSourceOutOfRange
	// ErrNoSuchVersion reports a QueryAt version that is not retained
	// (or history not enabled).
	ErrNoSuchVersion = core.ErrNoSuchVersion
	// ErrCanceled reports an evaluation abandoned because its context
	// was canceled or its deadline expired. The returned error also
	// unwraps to the context cause, so
	// errors.Is(err, context.DeadlineExceeded) works.
	ErrCanceled = core.ErrCanceled
	// ErrSubscribeUnsupported reports a Subscribe on a problem whose
	// answers do not fit the per-vertex delta frame model (Radii).
	ErrSubscribeUnsupported = core.ErrSubscribeUnsupported
	// ErrReservedName reports an EnableProblem whose problem is named
	// after a built-in.
	ErrReservedName = core.ErrReservedName
)

// VertexID identifies a vertex; IDs are dense starting at 0.
type VertexID = graph.VertexID

// Weight is a positive integer edge weight.
type Weight = graph.Weight

// Edge is a weighted directed edge (mirrored automatically on undirected
// graphs).
type Edge = graph.Edge

// Problem is the programming interface: the vertex function (Relax,
// Better) plus the triangle abstraction operators (Combine with Better as
// the comparison). See internal/props for the eight built-ins.
type Problem = engine.Problem

// Stats reports evaluation work: activations (vertex-function
// evaluations), edge relaxations, successful updates, and iterations.
type Stats = engine.Stats

// QueryResult is the outcome of a user query.
type QueryResult = core.QueryResult

// BatchReport summarizes one applied update batch.
type BatchReport = core.BatchReport

// Snapshot is an immutable version of the streaming graph, safe for
// concurrent readers while its mirror is held: the latest snapshot always
// is, and so is any snapshot nobody retired.
type Snapshot = streamgraph.Snapshot

// Directedness selects the edge interpretation of a graph.
type Directedness bool

// Graph directedness values.
const (
	Undirected Directedness = false
	Directed   Directedness = true
)

// Graph is the streaming (growing) graph.
type Graph struct {
	inner *streamgraph.Graph
}

// NewGraph creates an empty streaming graph over n vertices.
func NewGraph(n int, d Directedness) *Graph {
	return &Graph{inner: streamgraph.New(n, bool(d))}
}

// InsertEdges applies one batch of edge insertions and returns the new
// snapshot plus the distinct source vertices whose adjacency changed.
// When the graph is managed by a System, prefer System.ApplyBatch so the
// standing queries are re-stabilized too.
func (g *Graph) InsertEdges(batch []Edge) (*Snapshot, []VertexID) {
	return g.inner.InsertEdges(batch)
}

// DeleteEdges removes a batch of edges (mirrors included on undirected
// graphs). Prefer System.ApplyDeletions when the graph is managed by a
// System so the standing queries are recovered too.
func (g *Graph) DeleteEdges(batch []Edge) (*Snapshot, []VertexID) {
	return g.inner.DeleteEdges(batch)
}

// Acquire returns the latest immutable snapshot.
func (g *Graph) Acquire() *Snapshot { return g.inner.Acquire() }

// Save writes the graph's current snapshot to w in a compressed binary
// format (gap + varint encoded adjacency). Standing query state is not
// persisted; re-enable problems after LoadGraph to rebuild it.
//
// A System applying batches concurrently may retire the snapshot before
// Save pins it; Save then saves the newer latest one instead.
func (g *Graph) Save(w io.Writer) error {
	for {
		err := streamgraph.Save(w, g.inner.Acquire(), g.inner.Directed())
		if !errors.Is(err, streamgraph.ErrRetired) {
			return err
		}
	}
}

// LoadGraph reads a graph previously written by Save.
func LoadGraph(r io.Reader) (*Graph, error) {
	inner, err := streamgraph.Load(r)
	if err != nil {
		return nil, err
	}
	return &Graph{inner: inner}, nil
}

// Option configures a System.
type Option func(*config)

type config struct {
	k            int
	history      int
	record       bool
	cacheEntries int
	cacheOn      bool
}

// WithStandingQueries sets K, the upper bound on the standing queries
// maintained per standing set (default 16, max 64). Each set is built at
// K roots, then narrowed to the roots its Δ-initialization meet uses over
// a fixed sample of sources.
func WithStandingQueries(k int) Option {
	return func(c *config) { c.k = k }
}

// WithHistory retains up to capacity past snapshots so QueryAt can
// answer against earlier graph versions (time-travel queries). A snapshot
// is its flat mirror, so each retained version costs O(E) memory — a copy
// of the arcs — not the O(batch) a persistent tree would share.
func WithHistory(capacity int) Option {
	return func(c *config) { c.history = capacity }
}

// WithQueryRecording turns on recording of user-query sources into the
// workload histogram consumed by ReselectRoots.
func WithQueryRecording() Option {
	return func(c *config) { c.record = true }
}

// WithResultCache enables the Δ-result cache: every answered user query
// is retained (LRU, up to entries; <= 0 selects the default capacity)
// keyed by problem and source and stamped with its snapshot version.
// CachedQuery serves retained answers — exact for the version they
// report — without any evaluation, and the HTTP layer uses the same
// entries for its stale=ok / min_version serving policy.
func WithResultCache(entries int) Option {
	return func(c *config) { c.cacheEntries = entries; c.cacheOn = true }
}

// System couples a streaming graph with standing-query maintenance and
// Δ-based user query evaluation. It delegates to a core.System.
type System struct {
	inner *core.System
	g     *Graph
}

// NewSystem wraps a streaming graph: the System serves queries over it
// and streams updates into it (System.ApplyBatch).
func NewSystem(g *Graph, opts ...Option) *System {
	var c config
	for _, o := range opts {
		o(&c)
	}
	s := &System{g: g, inner: core.NewSystem(g.inner, c.k)}
	if c.history > 0 {
		s.inner.EnableHistory(c.history)
	}
	if c.record {
		s.inner.RecordQueries(true)
	}
	if c.cacheOn {
		s.inner.EnableResultCache(c.cacheEntries)
	}
	return s
}

// Graph returns the underlying streaming graph. Mutate through
// System.ApplyBatch and ApplyDeletions, never Graph.InsertEdges, so the
// standing queries follow.
func (s *System) Graph() *Graph { return s.g }

// Enable sets up a problem. Recognized names: BFS, SSSP, SSWP, SSNP,
// Viterbi, SSR, Radii, SSNSP, PageRank, CC. Its standing queries are
// fully evaluated at the top-K-degree roots of the current graph, then
// narrowed to the roots the Δ-initialization meet uses — unless
// an enabled problem already maintains the same standing set: Radii is 16
// SSSP slots and shares SSSP's set, SSNSP counts over BFS levels and
// shares BFS's, in whichever order they are enabled, so enabling both of
// a pair costs one evaluation and one maintenance pass per batch.
func (s *System) Enable(problem string) error { return s.inner.Enable(problem) }

// EnableProblem registers a custom problem: implement Problem with a
// monotonic, async-safe Relax and triangle-compatible Combine/Better,
// and the system maintains standing queries for it and answers
// arbitrary-source user queries Δ-based — the paper's programming
// interface. See examples/customproblem. A problem named after a
// built-in is rejected with ErrReservedName.
func (s *System) EnableProblem(p Problem) error { return s.inner.EnableCustom(p) }

// Enabled lists the enabled problems.
func (s *System) Enabled() []string { return s.inner.Enabled() }

// ApplyBatch inserts edges and incrementally re-stabilizes every enabled
// problem's standing queries.
func (s *System) ApplyBatch(batch []Edge) BatchReport {
	rep, _ := s.inner.ApplyBatchCtx(context.Background(), batch)
	return rep
}

// ApplyBatchCtx is ApplyBatch with context-based admission: a canceled
// ctx is honored only before the mutation begins (returning an error
// matching ErrCanceled). Once started, the batch and its standing-query
// maintenance always run to completion — interrupting maintenance
// mid-flight would leave standing state stale relative to its snapshot,
// silently degrading every later Δ warm start.
func (s *System) ApplyBatchCtx(ctx context.Context, batch []Edge) (BatchReport, error) {
	return s.inner.ApplyBatchCtx(ctx, batch)
}

// ApplyDeletions removes edges and recovers every enabled problem's
// standing queries. Deletions break the monotonicity that incremental
// resumption relies on, so recovery re-evaluates the standing queries
// from scratch — always sound, if slower than an insertion batch.
func (s *System) ApplyDeletions(batch []Edge) BatchReport {
	rep, _ := s.inner.ApplyDeletionsCtx(context.Background(), batch)
	return rep
}

// ApplyDeletionsCtx is ApplyDeletions with context-based admission (the
// same semantics as ApplyBatchCtx: ctx gates entry, never interrupts
// recovery mid-flight).
func (s *System) ApplyDeletionsCtx(ctx context.Context, batch []Edge) (BatchReport, error) {
	return s.inner.ApplyDeletionsCtx(ctx, batch)
}

// Query evaluates a user query with Δ-based incremental evaluation: any
// source vertex, no a priori registration needed.
func (s *System) Query(problem string, source VertexID) (*QueryResult, error) {
	return s.inner.QueryCtx(context.Background(), problem, source)
}

// QueryCtx is Query with cooperative cancellation: the engine checks ctx
// at superstep boundaries (no per-edge cost) and returns an error
// matching ErrCanceled when it fires. The query evaluates on private
// state, so cancellation never perturbs the standing queries.
func (s *System) QueryCtx(ctx context.Context, problem string, source VertexID) (*QueryResult, error) {
	return s.inner.QueryCtx(ctx, problem, source)
}

// QueryFull evaluates a user query from scratch (the non-incremental
// baseline). Results are identical to Query's; only the work differs.
func (s *System) QueryFull(problem string, source VertexID) (*QueryResult, error) {
	return s.inner.QueryFullCtx(context.Background(), problem, source)
}

// QueryFullCtx is QueryFull with cooperative cancellation (see QueryCtx).
func (s *System) QueryFullCtx(ctx context.Context, problem string, source VertexID) (*QueryResult, error) {
	return s.inner.QueryFullCtx(ctx, problem, source)
}

// MultiResult is the outcome of a batched user-query evaluation.
type MultiResult = core.MultiResult

// QueryMany evaluates up to 64 same-problem user queries in one batched
// Δ-based evaluation (the §4.5 batch mode applied to user queries):
// identical values to per-query Query calls, with the graph and value
// arrays traversed once.
func (s *System) QueryMany(problem string, sources []VertexID) (*MultiResult, error) {
	return s.inner.QueryManyCtx(context.Background(), problem, sources)
}

// QueryManyCtx is QueryMany with cooperative cancellation (see QueryCtx).
func (s *System) QueryManyCtx(ctx context.Context, problem string, sources []VertexID) (*MultiResult, error) {
	return s.inner.QueryManyCtx(ctx, problem, sources)
}

// HistoryVersions lists the retained snapshot versions.
func (s *System) HistoryVersions() []uint64 { return s.inner.HistoryVersions() }

// QueryAt evaluates a query against a retained historical version (full
// evaluation — Δ-based bounds are only valid for the live version).
func (s *System) QueryAt(version uint64, problem string, source VertexID) (*QueryResult, error) {
	return s.inner.QueryAtCtx(context.Background(), version, problem, source)
}

// QueryAtCtx is QueryAt with cooperative cancellation (see QueryCtx) —
// historical queries are full evaluations, the most expensive kind, so
// deadlines matter most here.
func (s *System) QueryAtCtx(ctx context.Context, version uint64, problem string, source VertexID) (*QueryResult, error) {
	return s.inner.QueryAtCtx(ctx, version, problem, source)
}

// ReselectRoots re-roots a problem's standing queries using the recorded
// query distribution blended with topology — the paper's §5 refinement
// for workloads whose query hotspots drift. Without recorded history it
// falls back to the top-degree rule.
func (s *System) ReselectRoots(problem string) error { return s.inner.ReselectRoots(problem) }

// CacheMetrics summarizes Δ-result cache activity.
type CacheMetrics = core.CacheMetrics

// CachedQuery serves a retained answer for (problem, source) when the
// cache (WithResultCache) holds one satisfying the freshness policy: at
// least minVersion, and — unless staleOK — at the current graph version.
// The returned result is exact for the version it reports;
// staleBatches counts the graph-changing batches applied since.
func (s *System) CachedQuery(problem string, source VertexID, minVersion uint64, staleOK bool) (res *QueryResult, staleBatches uint64, ok bool) {
	return s.inner.CachedQuery(problem, source, minVersion, staleOK)
}

// ResultCacheMetrics reports Δ-result cache activity (zero value when
// the cache is not enabled).
func (s *System) ResultCacheMetrics() CacheMetrics { return s.inner.ResultCacheMetrics() }

// Subscription is a registered push stream over one (problem, source)
// query; ResultFrame and VertexDelta are its wire types.
type (
	Subscription = core.Subscription
	ResultFrame  = core.ResultFrame
	VertexDelta  = core.VertexDelta
)

// Subscribe registers a continuously maintained answer for (problem,
// source): the first frame on Subscription.Frames() is the full answer
// (kind "snapshot"), and every subsequent ApplyBatch/ApplyDeletions
// pushes the changed (vertex, value) pairs (kind "delta") computed by
// one fused width-K refresh over all subscribed sources. buffer sets the
// frame-channel capacity (<= 0 selects the default); a subscriber whose
// buffer is full skips versions but every delivered frame is cumulative
// from the client's last received state, so applying frames in order is
// always exact. Call Unsubscribe when done.
func (s *System) Subscribe(problem string, source VertexID, buffer int) (*Subscription, error) {
	return s.inner.SubscribeCtx(context.Background(), problem, source, buffer)
}

// SubscribeCtx is Subscribe with cooperative cancellation of the initial
// snapshot evaluation (see QueryCtx).
func (s *System) SubscribeCtx(ctx context.Context, problem string, source VertexID, buffer int) (*Subscription, error) {
	return s.inner.SubscribeCtx(ctx, problem, source, buffer)
}

// Unsubscribe deregisters a subscription and closes its frame channel.
// Idempotent.
func (s *System) Unsubscribe(sub *Subscription) { s.inner.Unsubscribe(sub) }

// Subscribers reports the number of registered subscriptions.
func (s *System) Subscribers() int { return s.inner.Subscribers() }

// FormatValue renders an encoded vertex value human-readably for the
// named built-in problem (e.g. "dist 17", "width ∞", "unreachable").
func FormatValue(problem string, value uint64) string {
	return props.Format(problem, value)
}

// BuiltinProblems lists the problem names Enable accepts: the paper's
// eight vertex-specific benchmarks plus the whole-graph PageRank and CC.
func BuiltinProblems() []string {
	return append(props.Names(), "PageRank", "CC")
}

// StandingMaintainTime reports the wall time, in seconds, of the most
// recent (re-)evaluation of the standing set that bounds the named
// problem. The figure is the set's: SSSP and Radii report the same time,
// as do BFS and SSNSP (whose exact per-query count is not standing work).
func (s *System) StandingMaintainTime(problem string) (float64, error) {
	d, err := s.inner.StandingMaintainTime(problem)
	return d.Seconds(), err
}
