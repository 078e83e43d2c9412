package core

import (
	"context"
	"time"

	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/streamgraph"
)

// The writer: one path for every mutation. It admits on the apply token,
// applies the batch to the store, which publishes the next version with
// its mirror patched from the current one, then — inside the evaluator's
// exclusive window — publishes that snapshot to the barrier, maintains the
// standing state and the subscriptions over it, and retires the mirror it
// superseded.

// ApplyBatchCtx inserts an edge batch and incrementally re-stabilizes
// every enabled standing query, advancing the version by one. Admission is
// context-based: a context that is done before the batch is admitted —
// already, or while it waits for the writer before it — rejects the batch
// before any mutation with an ErrCanceled-wrapping error. Once admitted
// the batch always runs to completion, standing maintenance included —
// honoring cancellation mid-maintenance would leave some problems'
// standing state stale relative to the new version and silently shrink
// every later query's Δ warm start, so the update path trades cancellation
// granularity for an invariant: standing state is always converged for
// the version it is paired with.
func (s *System) ApplyBatchCtx(ctx context.Context, batch []graph.Edge) (BatchReport, error) {
	if err := s.admit(ctx); err != nil {
		return BatchReport{}, err
	}
	defer s.release()
	return s.apply(batch, false), nil
}

// ApplyDeletionsCtx removes a batch of edges and recovers every enabled
// standing query, with ApplyBatchCtx's admission semantics.
//
// Deletions break the monotonicity that incremental resumption depends
// on (a converged distance may now be *too good*). Standing sets recover
// with witness-based trimming (package standing: reset and re-derive only
// values that depended on a deleted arc — the KickStarter idea the paper
// cites); the maintained whole-graph answers re-evaluate from scratch,
// which is always sound.
func (s *System) ApplyDeletionsCtx(ctx context.Context, batch []graph.Edge) (BatchReport, error) {
	if err := s.admit(ctx); err != nil {
		return BatchReport{}, err
	}
	defer s.release()
	return s.apply(batch, true), nil
}

// admit takes the apply token, honoring ctx while waiting. A context
// that is already done always rejects, even when the token is free.
func (s *System) admit(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return &engine.CanceledError{Cause: err}
	}
	select {
	case s.tok <- struct{}{}:
		return nil
	case <-ctx.Done():
		return &engine.CanceledError{Cause: ctx.Err()}
	}
}

func (s *System) release() { <-s.tok }

// apply runs one admitted mutation. Caller holds the apply token. Every
// batch, an empty one included, publishes the store's next version, so
// the store's version is the System's.
func (s *System) apply(batch []graph.Edge, deletions bool) BatchReport {
	parent := s.bar.latest()
	var (
		snap     *streamgraph.Snapshot
		changed  []graph.VertexID
		resolved []graph.Edge
	)
	if deletions {
		resolved = resolveDeletionWeights(parent, batch)
		snap, changed = s.g.DeleteEdges(batch)
	} else {
		snap, changed = s.g.InsertEdges(batch)
	}

	start := time.Now()
	rep := s.publish(snap, parent, changed, resolved, deletions)
	rep.StandingElapsed = time.Since(start) - rep.RefreshElapsed
	rep.BatchEdges, rep.ChangedSources, rep.Version, rep.Changed = len(batch), len(changed), snap.Version(), changed
	s.cache.Advance(changed, parent.Version(), snap.Version())
	return rep
}

// publish is the writer's exclusive window. Under the evaluator's lock it
// publishes snap, maintains every standing set and maintained answer onto
// it and refreshes the subscriptions — so no reader pins snap before the
// state that bounds it — and only then retires parent's mirror. A reader
// pins under the shared lock: one that pinned parent did so before this
// window, and its pin keeps that mirror alive until it releases; any later
// one pins snap. A superseded mirror recycles once the history ring has
// evicted its snapshot and its readers have released it.
func (s *System) publish(snap, parent *streamgraph.Snapshot, changed []graph.VertexID, resolved []graph.Edge, deletions bool) (rep BatchReport) {
	s.ev.mu.Lock()
	defer s.ev.mu.Unlock()
	s.bar.publish(snap)
	switch {
	case !deletions:
		rep = s.ev.inserted(s.current(), changed)
	case len(changed) > 0:
		rep = s.ev.deleted(s.current(), resolved)
	default:
		// A deletion that removed nothing: the graph is the one the state
		// already stands on, so subscribers have nothing to learn and cached
		// answers are merely re-stamped (ResultCache.Advance), but the
		// standing sets have to record the version — the next insertion's
		// maintenance goes by it.
		s.ev.stamp(snap.Version())
	}
	parent.RetireFlat()
	return rep
}

// resolveDeletionWeights returns batch with each arc's weight replaced
// by the weight snap holds for it. Deletion requests identify arcs by
// endpoints (/v1/delete lets clients omit the weight), but the trimmed
// recovery's witness test compares Relax(val(a), w) against val(b) using
// the deleted arc's weight — a phantom weight matches nothing, skips the
// taint, and leaves stale-too-good standing values behind. Arcs snap does
// not contain keep their requested weight — they delete nothing, so at
// worst they over-taint, which is sound. On undirected graphs the mirror
// arc carries the same weight, so the forward lookup alone resolves every
// existing edge.
func resolveDeletionWeights(snap *streamgraph.Snapshot, batch []graph.Edge) []graph.Edge {
	out := append([]graph.Edge(nil), batch...)
	for i, a := range out {
		if int(a.Src) >= snap.NumVertices() {
			continue
		}
		if w, ok := snap.HasEdge(a.Src, a.Dst); ok {
			out[i].W = w
		}
	}
	return out
}
