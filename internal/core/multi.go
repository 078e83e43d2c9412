package core

import (
	"context"
	"fmt"
	"time"

	"tripoline/internal/engine"
	"tripoline/internal/graph"
)

// MultiResult reports a batched user-query evaluation: up to 64 queries
// of the same problem evaluated simultaneously under one combined
// frontier — the batch-mode execution of §4.5 applied to *user* queries.
// Each query is still Δ-initialized from its own best standing root, so
// the batch keeps the full incremental benefit while touching the graph
// and value arrays once instead of per query.
type MultiResult struct {
	Problem string
	Sources []graph.VertexID
	// Values is the K-wide array: Values[x*Width+j] is query j's value
	// at vertex x.
	Values []uint64
	Width  int
	Stats  engine.Stats
	// Slots and PropURs record each query's chosen standing root.
	Slots   []int
	PropURs []uint64
	Elapsed time.Duration
	// Version is the snapshot version the batch evaluated against.
	Version uint64
}

// Value returns query slot j's value at vertex x.
func (r *MultiResult) Value(x graph.VertexID, j int) uint64 {
	return r.Values[int(x)*r.Width+j]
}

// QueryManyCtx evaluates up to 64 same-problem user queries in one
// batched Δ-based evaluation. The result values are identical to issuing
// each QueryCtx separately; the work is the batch-mode coalesced
// version. One deadline covers the whole batch (it runs under a single
// combined frontier, so per-query cancellation is not meaningful).
func (s *System) QueryManyCtx(ctx context.Context, problem string, sources []graph.VertexID) (*MultiResult, error) {
	pr, err := s.lookup(problem)
	if err != nil {
		return nil, err
	}
	if !pr.Batchable() {
		return nil, fmt.Errorf("core: problem %q does not support batched user queries", problem)
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("core: no sources")
	}
	if len(sources) > 64 {
		return nil, fmt.Errorf("core: at most 64 queries per batch (got %d)", len(sources))
	}
	for _, u := range sources {
		if err := s.checkSource(u); err != nil {
			return nil, err
		}
		s.observe(u)
	}
	start := time.Now()
	ev, view, release, err := s.evalDelta(ctx, pr.set, func(int) []graph.VertexID { return sources })
	if err != nil {
		return nil, err
	}
	defer release()
	return &MultiResult{
		Problem: problem, Sources: sources,
		Values: ev.st.Interleaved(), Width: len(sources),
		Stats: ev.stats, Slots: ev.slots, PropURs: ev.propURs,
		Elapsed: time.Since(start), Version: view.Version(),
	}, nil
}
