// Package core implements the Tripoline system (§5): a shared-memory
// streaming graph processing system that supports generalized incremental
// evaluation of vertex-specific queries without a priori knowledge of
// their source vertices.
//
// The system composes four components, mirroring Figure 10 of the paper:
//
//   - the streaming graph engine (package streamgraph, Aspen-like);
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
package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/standing"
	"tripoline/internal/streamgraph"
	"tripoline/internal/triangle"
)

// DefaultK is the default number of standing queries per problem (§6.1).
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
	// StandingSlot and PropUR record the standing query chosen for u
	// (Eq. 15) on incremental runs from a standing set.
	StandingSlot int
	PropUR       uint64
	// Version is the snapshot version the result is valid for: the pinned
	// view's version for vertex-specific problems, the version the
	// standing state last converged at for the whole-graph problems, and
	// the requested version for QueryAt.
	Version uint64
}

// BatchReport summarizes one applied update batch.
type BatchReport struct {
	BatchEdges      int
	ChangedSources  int
	StandingElapsed time.Duration
	StandingStats   engine.Stats
	Version         uint64
	// Changed lists the distinct source vertices whose adjacency changed,
	// as returned by the streamgraph mutation. The shard router unions
	// these across shards to drive whole-graph maintenance (CC resumption)
	// and cache invalidation at the global version.
	Changed []graph.VertexID
	// Subscription fan-out for this batch: registered subscribers at
	// refresh time, frames delivered, frames dropped on full channels,
	// and the wall time of the fused refresh (zero with no subscribers).
	Subscribers    int
	FramesSent     int
	FramesDropped  int
	RefreshElapsed time.Duration
}

// System is a Tripoline instance over one streaming graph.
type System struct {
	G *streamgraph.Graph
	K int
	// problems holds the enabled problems; order preserves enable order
	// for deterministic iteration.
	problems map[string]*problem
	order    []string
	// sets holds one standing set per distinct ProblemDef.Base (found by
	// its name), in creation order: whichever enabled problem needs a set
	// first creates it (its roots are chosen then) and every later problem
	// with the same Base shares it, so a batch maintains each set once.
	// answers are the Base-less problems' maintained answers.
	sets    []*standing.Manager
	answers []handler
	// hist, when non-nil, records user-query sources for
	// ReselectRoots (see RecordQueries).
	hist *standing.QueryHistogram
	// history, when non-nil, retains past snapshots for QueryAt
	// (see EnableHistory).
	history *streamgraph.History
	// cur is the snapshot produced by the most recent mutation through
	// this system (initially the construction-time snapshot). The single
	// writer uses it to delta-patch the next version's mirror from the
	// parent's and to retire the parent's slabs afterwards; query paths
	// never read it.
	cur *streamgraph.Snapshot
	// stMu serializes standing-state access between the (single) writer
	// and concurrent readers: mutations hold it exclusively across the
	// publish + maintenance window, queries hold it shared only while
	// Δ-initializing out of the standing arrays (never across an engine
	// run, so reader parallelism is preserved). Taking the write lock
	// *before* the graph mutation also keeps deletions sound: a reader can
	// never pair pre-deletion standing bounds (possibly too good) with a
	// post-deletion snapshot.
	stMu sync.RWMutex
	// cache, when non-nil, is the Δ-result cache (see cache.go).
	cache *ResultCache
	// subMu guards the subscription registry (see subscribe.go). Lock
	// order: stMu before subMu — the writer refreshes subscriptions
	// inside its exclusive window.
	subMu  sync.Mutex
	subs   map[uint64]*Subscription
	subSeq uint64
}

// NewSystem wraps a streaming graph. k is the number of standing queries
// per standing set (clamped to [1, 64]; 0 selects DefaultK).
func NewSystem(g *streamgraph.Graph, k int) *System {
	if k == 0 {
		k = DefaultK
	}
	if k < 1 {
		k = 1
	}
	if k > 64 {
		k = 64
	}
	return &System{G: g, K: k, problems: make(map[string]*problem), cur: g.Acquire()}
}

// updateView returns the mirror the standing maintenance that follows an
// insertion batch evaluates over. It is delta-patched from the parent
// version's mirror using the batch's changed-source list — O(|changed| +
// Δdegree + memcpy) instead of a full O(V+E) walk — with a full build when
// the parent's was never materialized (FlattenFrom itself also falls back
// if the delta preconditions don't hold, e.g. after out-of-band
// mutations). Writer-side only: query paths pin (PinMirror).
func updateView(parent, snap *streamgraph.Snapshot, changed []graph.VertexID) *streamgraph.Flat {
	if parent != nil {
		if pf := parent.BuiltFlat(); pf != nil {
			return snap.FlattenFrom(pf, changed)
		}
	}
	return snap.Flatten()
}

// advance publishes snap as the system's current version: the parent's
// mirror (if any) is retired so its slabs recycle into future builds —
// queries that pinned it keep it alive until they release — and history,
// when enabled, records the new snapshot.
func (s *System) advance(parent, snap *streamgraph.Snapshot) {
	s.cur = snap
	if parent != nil && parent != snap {
		parent.RetireFlat()
	}
	s.recordHistory()
}

// PinMirror is the view contract's read side, the one way a reader gets
// something to evaluate over: the C-tree snapshot is the store, its flat
// mirror is what is evaluated, and a pin is retain-or-build. The snapshot's
// shared mirror (built on first use) is retained so a writer retiring it
// mid-query cannot recycle the slabs under the reader; when it can no
// longer be retained — a batch or a history eviction retired and drained
// it — the reader builds a mirror of its own, which the release frees.
// Either way the view is exactly snap's version.
func PinMirror(snap *streamgraph.Snapshot) (*streamgraph.Flat, func()) {
	if f := snap.Flatten(); f.Retain() {
		return f, f.Release
	}
	f := snap.MaterializeFlat()
	return f, f.Release
}

// pinShared pins an evaluation view whose version is consistent with the
// standing state and runs initFn while the standing read lock is held:
// under the shared lock no mutation is inside its publish+maintain
// window (ApplyBatchCtx/ApplyDeletionsCtx hold the write lock across
// both), so the latest snapshot and the standing arrays describe the
// same version. Without this pairing a reader could pin a pre-insertion
// snapshot and then Δ-initialize from post-insertion standing bounds —
// bounds that are *too good* for the pinned view, which monotone
// relaxation can never repair. initFn must copy whatever it needs out of
// the standing state and must not run the engine; the caller runs the
// engine on the returned (pinned) view after pinShared returns, outside
// the lock, so reader parallelism is preserved.
func (s *System) pinShared(initFn func(*streamgraph.Flat) error) (*streamgraph.Flat, func(), error) {
	s.stMu.RLock()
	defer s.stMu.RUnlock()
	view, release := PinMirror(s.G.Acquire())
	if err := initFn(view); err != nil {
		release()
		return nil, nil, err
	}
	return view, release, nil
}

// TopDegreeRoots returns the top-k out-degree vertices of the snapshot —
// the topology-based standing query selection (Eq. 14).
func TopDegreeRoots(s *streamgraph.Snapshot, k int) []graph.VertexID {
	n := s.NumVertices()
	ids := make([]int, n)
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		ids[v] = v
		deg[v] = s.Degree(graph.VertexID(v))
	}
	sort.Slice(ids, func(a, b int) bool {
		if deg[ids[a]] != deg[ids[b]] {
			return deg[ids[a]] > deg[ids[b]]
		}
		return ids[a] < ids[b]
	})
	if k > n {
		k = n
	}
	out := make([]graph.VertexID, k)
	for i := 0; i < k; i++ {
		out[i] = graph.VertexID(ids[i])
	}
	return out
}

// problem is an enabled problem: its definition plus the standing set
// that bounds it (shared with every enabled problem of the same Base) or,
// for a Base-less problem, its maintained answer.
type problem struct {
	ProblemDef
	set *standing.Manager
	ans handler
}

// Enable sets up the named problem ("BFS", "SSSP", "SSWP", "SSNP",
// "Viterbi", "SSR", "Radii", "SSNSP", "PageRank", "CC" — see
// LookupProblem). The standing set of its Base is fully evaluated on the
// current snapshot, at the top-K-degree roots, unless an enabled problem
// already maintains it — Radii shares SSSP's set and SSNSP shares BFS's,
// in whichever order they are enabled.
func (s *System) Enable(name string) error {
	def, ok := LookupProblem(name)
	if !ok {
		return fmt.Errorf("core: unknown problem %q: %w", name, ErrUnknownProblem)
	}
	return s.enable(def)
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
	return s.enable(def)
}

func (s *System) enable(def ProblemDef) error {
	if _, dup := s.problems[def.Name]; dup {
		return fmt.Errorf("core: problem %s already enabled", def.Name)
	}
	snap := s.G.Acquire()
	pr := &problem{ProblemDef: def}
	if def.Base == nil {
		pr.ans = def.maintain(snap.Flatten())
		s.answers = append(s.answers, pr.ans)
	} else if pr.set = s.setFor(def.Base.Name()); pr.set == nil {
		pr.set = standing.New(def.Base, snap.Flatten(), TopDegreeRoots(snap, s.K), s.G.Directed())
		s.sets = append(s.sets, pr.set)
	}
	s.problems[def.Name] = pr
	s.order = append(s.order, def.Name)
	// The enable-time snapshot becomes the delta-patch parent of the
	// first batch.
	s.cur = snap
	return nil
}

// setFor returns the standing set maintained for the named Base, or nil.
func (s *System) setFor(base string) *standing.Manager {
	for _, set := range s.sets {
		if set.Problem.Name() == base {
			return set
		}
	}
	return nil
}

// Enabled lists enabled problems in enable order.
func (s *System) Enabled() []string { return append([]string(nil), s.order...) }

// ApplyBatchCtx inserts an edge batch into the streaming graph and
// incrementally re-stabilizes every enabled standing query. Admission is
// context-based: a context that is already canceled (or past its
// deadline) rejects the batch before any mutation, returning an ErrCanceled-wrapping error. Once the
// insertion begins the batch always runs to completion, standing
// maintenance included — honoring cancellation mid-maintenance would
// leave some problems' standing state stale relative to the new snapshot
// version and silently shrink every later query's Δ warm start, so the
// update path trades cancellation granularity for an invariant: standing
// state is always converged for the version it is paired with.
func (s *System) ApplyBatchCtx(ctx context.Context, batch []graph.Edge) (BatchReport, error) {
	if err := ctx.Err(); err != nil {
		return BatchReport{}, &engine.CanceledError{Cause: err}
	}
	// Exclusive from before the snapshot is published until maintenance
	// finishes: no reader may Δ-initialize from standing state that is
	// mid-rewrite or paired with the wrong version.
	s.stMu.Lock()
	defer s.stMu.Unlock()
	parent := s.cur
	snap, changed := s.G.InsertEdges(batch)
	rep := BatchReport{
		BatchEdges:     len(batch),
		ChangedSources: len(changed),
		Version:        snap.Version(),
		Changed:        changed,
	}
	start := time.Now()
	view := updateView(parent, snap, changed)
	for _, set := range s.sets {
		rep.StandingStats.Add(set.Update(view, changed))
	}
	for _, ans := range s.answers {
		rep.StandingStats.Add(ans.update(view, changed))
	}
	rep.StandingElapsed = time.Since(start)
	sr := s.refreshSubscriptions(view)
	rep.Subscribers, rep.FramesSent, rep.FramesDropped, rep.RefreshElapsed =
		sr.subscribers, sr.sent, sr.dropped, sr.elapsed
	s.cache.Advance(changed, prevVersion(parent, snap), snap.Version())
	s.advance(parent, snap)
	return rep, nil
}

// prevVersion is the version a mutation superseded. Without a parent
// snapshot (nothing enabled yet) it degenerates to the new version,
// which disables cache re-stamping — there is nothing cached to re-stamp.
func prevVersion(parent, snap *streamgraph.Snapshot) uint64 {
	if parent == nil {
		return snap.Version()
	}
	return parent.Version()
}

// StandingMaintainTime returns the wall time of the most recent
// (re-)evaluation of the standing set that bounds the named problem — the
// set's, so problems sharing one report the same figure — or of its
// maintained answer.
func (s *System) StandingMaintainTime(name string) (time.Duration, error) {
	pr, err := s.lookup(name)
	if err != nil {
		return 0, err
	}
	if pr.set == nil {
		return pr.ans.lastMaintain(), nil
	}
	return pr.set.LastMaintain, nil
}

// lookup resolves an enabled problem.
func (s *System) lookup(name string) (*problem, error) {
	pr, ok := s.problems[name]
	if !ok {
		return nil, fmt.Errorf("core: problem %q not enabled: %w", name, ErrUnknownProblem)
	}
	return pr, nil
}

// checkSource validates a user-query source against the current graph.
func (s *System) checkSource(u graph.VertexID) error {
	if n := s.G.Acquire().NumVertices(); int(u) >= n {
		return fmt.Errorf("core: source %d out of range (graph has %d vertices): %w",
			u, n, ErrSourceOutOfRange)
	}
	return nil
}

// QueryCtx answers a user query with Δ-based incremental evaluation
// under cooperative cancellation: the engine checks ctx at every
// superstep boundary, so a deadline or a dropped client stops
// the convergence loop promptly and the call returns an
// ErrCanceled-wrapping error. The standing arrays are never touched by a
// user query (Δ-initialization copies out of them), so cancellation at
// any point is safe.
func (s *System) QueryCtx(ctx context.Context, name string, u graph.VertexID) (*QueryResult, error) {
	pr, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	if err := s.checkSource(u); err != nil {
		return nil, err
	}
	s.observe(u)
	res, err := s.queryDelta(ctx, pr, u)
	if err != nil {
		return nil, err
	}
	s.cache.Put(res)
	return res, nil
}

// queryDelta answers one user query incrementally: read off the
// maintained answer, or evaluate Δ-based from the problem's standing set.
func (s *System) queryDelta(ctx context.Context, pr *problem, u graph.VertexID) (*QueryResult, error) {
	if pr.set == nil {
		// Nothing to cancel.
		s.stMu.RLock()
		vals, version := pr.ans.values()
		s.stMu.RUnlock()
		return &QueryResult{Problem: pr.Name, Source: u, Values: vals, Width: 1, Incremental: true, Version: version}, nil
	}
	start := time.Now()
	ev, view, release, err := s.evalDelta(ctx, pr.set, func(n int) []graph.VertexID { return pr.Sources(u, n) })
	if err != nil {
		return nil, err
	}
	defer release()
	res, err := pr.Answer(ctx, view, u, ev.st.Interleaved(), ev.st.K, ev.stats)
	if err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	res.Incremental, res.StandingSlot, res.PropUR = true, ev.slots[0], ev.propURs[0]
	res.Version = view.Version()
	return res, nil
}

// evaluation is one Δ-based evaluation of a standing set's problem from
// sources, one slot each: deltaInit prepares it out of the standing
// arrays, run converges it.
type evaluation struct {
	sources []graph.VertexID
	st      *engine.State
	stats   engine.Stats
	// slots and propURs record each source's chosen standing root (Eq. 15).
	slots   []int
	propURs []uint64
}

// deltaInit allocates the width-len(sources) state and Δ-initializes each
// slot from its own best standing root, straight into the state's
// storage. The caller holds stMu (shared under pinShared, or exclusive in
// the writer's window) and runs the engine after letting go of the shared
// lock. Each slot is an O(N) parallel pass, so cancellation is honored
// between slots as well as inside the engine run.
func deltaInit(ctx context.Context, set *standing.Manager, sources []graph.VertexID) (*evaluation, error) {
	p, n, w := set.Problem, set.Forward.N, len(sources)
	ev := &evaluation{sources: sources, slots: make([]int, w), propURs: make([]uint64, w)}
	if w == 1 {
		// The one column is written whole by the Δ-init below, so it is not
		// filled with the init value first: a width-1 query over a min/max
		// problem is little more than this pass.
		ev.st = &engine.State{P: p, K: 1, N: n, Values: make([]uint64, n)}
	} else {
		ev.st = engine.NewState(p, n, w)
	}
	for j, u := range sources {
		if err := ctx.Err(); err != nil {
			return nil, &engine.CanceledError{Cause: err}
		}
		slot, propUR := set.Select(u)
		ev.slots[j], ev.propURs[j] = slot, propUR
		col := set.StandingColumn(slot)
		if dst, ok := ev.st.ColumnView(j); ok {
			triangle.DeltaInitInto(dst, p, u, propUR, col)
		} else {
			arr, stride, off := ev.st.StrideView(j)
			triangle.DeltaInitStridedInto(arr, stride, off, p, u, propUR, col)
		}
	}
	return ev, nil
}

// run converges the Δ-initialized state over view.
func (ev *evaluation) run(ctx context.Context, view *streamgraph.Flat) (err error) {
	seeds, masks := engine.SourceSeeds(ev.sources)
	ev.stats, err = ev.st.RunPushCtx(ctx, view, seeds, masks)
	return err
}

// evalDelta is the one Δ-based evaluation every reader runs: pin the
// latest mirror and Δ-initialize from set as one step under the shared
// lock (pinShared), then converge on the pinned view outside it. The
// sources may depend on the pinned view's vertex count. The caller
// releases the view once it has read the answer off it.
func (s *System) evalDelta(ctx context.Context, set *standing.Manager, sourcesOf func(n int) []graph.VertexID) (*evaluation, *streamgraph.Flat, func(), error) {
	var ev *evaluation
	view, release, err := s.pinShared(func(g *streamgraph.Flat) (err error) {
		ev, err = deltaInit(ctx, set, sourcesOf(g.NumVertices()))
		return err
	})
	if err != nil {
		return nil, nil, nil, err
	}
	if err := ev.run(ctx, view); err != nil {
		release()
		return nil, nil, nil, err
	}
	return ev, view, release, nil
}

// queryFull answers one user query from scratch over view: the
// maintained answer's own full evaluation, or the engine from the
// problem's sources.
func (pr *problem) queryFull(ctx context.Context, view *streamgraph.Flat, u graph.VertexID) (res *QueryResult, err error) {
	start := time.Now()
	if pr.set == nil {
		vals, stats, err := pr.ans.full(ctx, view)
		if err != nil {
			return nil, err
		}
		res = &QueryResult{Problem: pr.Name, Source: u, Values: vals, Width: 1, Stats: stats}
	} else {
		st, stats, err := engine.RunCtx(ctx, view, pr.Base, pr.Sources(u, view.NumVertices()))
		if err != nil {
			return nil, err
		}
		if res, err = pr.Answer(ctx, view, u, st.Interleaved(), st.K, stats); err != nil {
			return nil, err
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// DeltaMergeInto folds this system's best Δ(u, r*) initialization for
// the named problem into init: init[x] becomes the better of its current
// value and Combine(property(u, r*), property(r*, x)), computed from the
// problem's standing set under the shared lock. The merge happens only
// when the set's converged version equals wantVersion — the caller (the
// shard router) pins a snapshot vector first and must never pair standing
// bounds from a different version with it, because newer bounds can be
// *too good* for the pinned view and monotone relaxation cannot recover
// from that. It returns the chosen standing slot and property(u, r*)
// alongside ok=false when the problem is not enabled, has no standing
// set, or the version gate fails — in which case init is untouched, which
// is always sound (the caller falls back to the default initialization
// for this system's share of the bounds).
//
// The merged bounds are computed over this system's graph only. When that
// graph is one shard of a larger partitioned graph, its properties are
// never better than the full graph's (every problem here improves
// monotonically under edge insertion), so the merged Δ remains a sound —
// merely weaker — initialization for evaluation over the union.
func (s *System) DeltaMergeInto(problem string, u graph.VertexID, wantVersion uint64, init []uint64) (slot int, propUR uint64, ok bool) {
	pr, err := s.lookup(problem)
	if err != nil || pr.set == nil {
		return 0, 0, false
	}
	s.stMu.RLock()
	defer s.stMu.RUnlock()
	if pr.set.LastVersion != wantVersion || int(u) >= s.G.Acquire().NumVertices() {
		return 0, 0, false
	}
	p := pr.set.Problem
	slot, propUR = pr.set.Select(u)
	col := pr.set.StandingColumn(slot)
	n := len(init)
	if len(col) < n {
		n = len(col)
	}
	for x := 0; x < n; x++ {
		cand := p.Combine(propUR, col[x])
		if p.Better(cand, init[x]) {
			init[x] = cand
		}
	}
	return slot, propUR, true
}

// QueryFullCtx answers a user query with a from-scratch
// (non-incremental) evaluation — the baseline the paper's speedups
// compare against — under cooperative cancellation (see QueryCtx).
func (s *System) QueryFullCtx(ctx context.Context, name string, u graph.VertexID) (*QueryResult, error) {
	pr, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	if err := s.checkSource(u); err != nil {
		return nil, err
	}
	view, release := PinMirror(s.G.Acquire())
	defer release()
	res, err := pr.queryFull(ctx, view, u)
	if err != nil {
		return nil, err
	}
	res.Version = view.Version()
	return res, nil
}
