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

// QueryMany is QueryManyCtx without cancellation.
func (s *System) QueryMany(problem string, sources []graph.VertexID) (*MultiResult, error) {
	return s.QueryManyCtx(context.Background(), problem, sources)
}

// QueryAt is QueryAtCtx without cancellation.
func (s *System) QueryAt(version uint64, problem string, u graph.VertexID) (*QueryResult, error) {
	return s.QueryAtCtx(context.Background(), version, problem, u)
}

// Subscribe is SubscribeCtx without cancellation.
func (s *System) Subscribe(problem string, u graph.VertexID, buffer int) (*Subscription, error) {
	return s.SubscribeCtx(context.Background(), problem, u, buffer)
}
