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
	"time"

	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/streamgraph"
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
	// ev holds the enabled problems, their standing sets and maintained
	// answers, the subscriptions, the recorded query sources, and the lock
	// that pairs the standing state with the latest snapshot. The
	// System publishes every version under ev.mu, before it maintains ev
	// onto it (so a reader can never pair pre-deletion standing bounds,
	// possibly too good, with a post-deletion snapshot), and its readers
	// pin the latest snapshot's mirror under it (pin).
	ev *Evaluator
	// history, when non-nil, retains past snapshots for QueryAt
	// (see EnableHistory).
	history *streamgraph.History
	// cur is the snapshot produced by the most recent mutation through
	// this system (initially the construction-time snapshot). The single
	// writer uses it to delta-patch the next version's mirror from the
	// parent's and to retire the parent's slabs afterwards; query paths
	// never read it.
	cur *streamgraph.Snapshot
	// cache, when non-nil, is the Δ-result cache (see cache.go).
	cache *ResultCache
}

// NewSystem wraps a streaming graph. k is the number of standing queries
// per standing set (clamped to [1, 64]; 0 selects DefaultK).
func NewSystem(g *streamgraph.Graph, k int) *System {
	return &System{G: g, ev: NewEvaluator(k, g.Directed()), cur: g.Acquire()}
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

// pin is the System's Pin: the latest snapshot's mirror, pinned.
func (s *System) pin() (View, func()) {
	view, release := PinMirror(s.G.Acquire())
	return view, release
}

// Enable sets up the named problem ("BFS", "SSSP", "SSWP", "SSNP",
// "Viterbi", "SSR", "Radii", "SSNSP", "PageRank", "CC" — see
// LookupProblem) on the current snapshot (see Evaluator.Enable).
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
	snap := s.G.Acquire()
	if err := s.ev.Enable(def, snap.Flatten()); err != nil {
		return err
	}
	// The enable-time snapshot becomes the delta-patch parent of the
	// first batch.
	s.cur = snap
	return nil
}

// Enabled lists enabled problems in enable order.
func (s *System) Enabled() []string { return s.ev.Enabled() }

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
	s.ev.mu.Lock()
	defer s.ev.mu.Unlock()
	parent := s.cur
	snap, changed := s.G.InsertEdges(batch)
	start := time.Now()
	rep := s.ev.inserted(updateView(parent, snap, changed), changed)
	s.finish(&rep, start, batch, parent, snap, changed)
	return rep, nil
}

// finish completes a mutation's report — the batch, the new version, the
// changed sources, and the standing time since start, subscription
// refresh excluded — and makes snap the system's current version: the
// cache advances to it, the parent's mirror (if any) is retired so its
// slabs recycle into future builds — queries that pinned it keep it alive
// until they release — and history, when enabled, records snap.
func (s *System) finish(rep *BatchReport, start time.Time, batch []graph.Edge, parent, snap *streamgraph.Snapshot, changed []graph.VertexID) {
	rep.StandingElapsed = time.Since(start) - rep.RefreshElapsed
	rep.BatchEdges, rep.ChangedSources, rep.Version, rep.Changed = len(batch), len(changed), snap.Version(), changed
	s.cache.Advance(changed, prevVersion(parent, snap), snap.Version())
	s.cur = snap
	if parent != nil && parent != snap {
		parent.RetireFlat()
	}
	s.recordHistory()
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
// (re-)evaluation of the standing set that bounds the named problem, or
// of its maintained answer (see Evaluator.MaintainTime).
func (s *System) StandingMaintainTime(name string) (time.Duration, error) {
	return s.ev.MaintainTime(name)
}

// QueryCtx answers a user query with Δ-based incremental evaluation
// under cooperative cancellation: the engine checks ctx at every
// superstep boundary, so a deadline or a dropped client stops the
// convergence loop promptly and the call returns an ErrCanceled-wrapping
// error (see Evaluator.Query).
func (s *System) QueryCtx(ctx context.Context, name string, u graph.VertexID) (*QueryResult, error) {
	res, err := s.ev.Query(ctx, name, u, s.pin)
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
	view, release := PinMirror(s.G.Acquire())
	defer release()
	return s.ev.QueryFull(ctx, name, u, view)
}
