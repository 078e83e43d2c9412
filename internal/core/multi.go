package core

import (
	"context"
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
	// Slots and PropURs record each query's Eq. 15 pick, the first of
	// the roots its Δ-initialization meets over (QueryResult.StandingSlot):
	// an index into the set's narrowed Roots.
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
// batched Δ-based evaluation (see evaluator.QueryMany).
func (s *System) QueryManyCtx(ctx context.Context, problem string, sources []graph.VertexID) (*MultiResult, error) {
	return s.ev.QueryMany(ctx, problem, sources, s.bar.pinLatest)
}
