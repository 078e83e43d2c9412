package core

import (
	"context"

	"tripoline/internal/graph"
)

// Non-Ctx sugar: each call is its Ctx form under context.Background(),
// for tests, examples and batch jobs that have no deadline to carry.

// ApplyBatch is ApplyBatchCtx without admission control.
func (s *System) ApplyBatch(batch []graph.Edge) BatchReport {
	rep, _ := s.ApplyBatchCtx(context.Background(), batch)
	return rep
}

// ApplyDeletions is ApplyDeletionsCtx without admission control.
func (s *System) ApplyDeletions(batch []graph.Edge) BatchReport {
	rep, _ := s.ApplyDeletionsCtx(context.Background(), batch)
	return rep
}

// Query is QueryCtx without cancellation.
func (s *System) Query(name string, u graph.VertexID) (*QueryResult, error) {
	return s.QueryCtx(context.Background(), name, u)
}

// QueryFull is QueryFullCtx without cancellation.
func (s *System) QueryFull(name string, u graph.VertexID) (*QueryResult, error) {
	return s.QueryFullCtx(context.Background(), name, u)
}
