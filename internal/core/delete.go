package core

import (
	"context"
	"time"

	"tripoline/internal/engine"
	"tripoline/internal/graph"
)

// ApplyDeletionsCtx removes a batch of edges from the streaming graph
// and recovers every enabled standing query.
//
// Deletions break the monotonicity that incremental resumption depends
// on (a converged distance may now be *too good*). Standing sets recover
// with witness-based trimming (package standing: reset and re-derive only
// values that depended on a deleted arc — the KickStarter idea the paper
// cites); the maintained whole-graph answers re-evaluate from scratch,
// which is always sound.
//
// Admission is context-based: like ApplyBatchCtx, cancellation is
// honored only before the mutation begins; once started, deletion
// recovery always completes so the standing state stays converged for
// its snapshot version.
func (s *System) ApplyDeletionsCtx(ctx context.Context, batch []graph.Edge) (BatchReport, error) {
	if err := ctx.Err(); err != nil {
		return BatchReport{}, &engine.CanceledError{Cause: err}
	}
	// Exclusive before DeleteEdges publishes: deletions make converged
	// standing values potentially *too good*, so no reader may pair
	// pre-recovery standing bounds with the post-deletion snapshot.
	s.ev.mu.Lock()
	defer s.ev.mu.Unlock()
	parent := s.cur
	// Resolve each requested arc to its stored weight before the graph
	// forgets it. Deletion requests identify arcs by endpoints (the
	// serving layer's /v1/delete lets clients omit the weight entirely),
	// but the trimmed recovery's witness test compares Relax(val(a), w)
	// against val(b) using the deleted arc's weight — seeding it with a
	// phantom weight matches nothing, skips the taint, and leaves
	// stale-too-good standing values behind.
	resolved := ResolveDeletionWeights(parent, batch)
	snap, changed := s.G.DeleteEdges(batch)
	start := time.Now()
	var rep BatchReport
	if len(changed) > 0 {
		// Deletions invalidate span reuse (an unchanged vertex's span may
		// alias arcs that no longer exist downstream of it), so the mirror
		// is rebuilt in full — the data-structure analogue of the standing
		// Rebuild recovery path.
		rep = s.ev.deleted(snap.Flatten(), resolved)
	} else {
		// With an empty changed list the graph content is identical, so
		// subscribers have nothing to learn and cached answers are merely
		// re-stamped to the new version (ResultCache.Advance handles both
		// cases). The standing state is converged on the new version as it
		// stands, and has to say so: the next insertion's maintenance goes by
		// the version it records. No mirror is built for a version nobody may
		// ever evaluate over.
		s.ev.stamp(snap.Version())
	}
	s.finish(&rep, start, batch, parent, snap, changed)
	return rep, nil
}

// ResolveDeletionWeights returns batch with each arc's weight replaced
// by the weight the pre-deletion view actually stores for it. Arcs
// the view does not contain keep their requested weight — they
// delete nothing, so at worst they over-taint, which is sound. On
// undirected graphs the mirror arc carries the same weight, so the
// forward lookup alone resolves every existing edge.
func ResolveDeletionWeights(view engine.View, batch []graph.Edge) []graph.Edge {
	out := append([]graph.Edge(nil), batch...)
	n := view.NumVertices()
	// Group requests by source so each adjacency list is walked once.
	bySrc := make(map[graph.VertexID][]int, len(out))
	for i := range out {
		if int(out[i].Src) < n {
			bySrc[out[i].Src] = append(bySrc[out[i].Src], i)
		}
	}
	for src, idxs := range bySrc {
		view.ForEachOut(src, func(d graph.VertexID, w graph.Weight) {
			for _, i := range idxs {
				if out[i].Dst == d {
					out[i].W = w
				}
			}
		})
	}
	return out
}
