package shard

import (
	"context"

	"tripoline/internal/core"
	"tripoline/internal/graph"
)

// Non-Ctx sugar, mirroring core.System's: each call is its Ctx form
// under context.Background(). None of these is part of core.Backend.

// ApplyBatch is ApplyBatchCtx without admission control.
func (r *Router) ApplyBatch(batch []graph.Edge) core.BatchReport {
	rep, _ := r.ApplyBatchCtx(context.Background(), batch)
	return rep
}

// ApplyDeletions is ApplyDeletionsCtx without admission control.
func (r *Router) ApplyDeletions(batch []graph.Edge) core.BatchReport {
	rep, _ := r.ApplyDeletionsCtx(context.Background(), batch)
	return rep
}

// Query is QueryCtx without cancellation.
func (r *Router) Query(name string, u graph.VertexID) (*core.QueryResult, error) {
	return r.QueryCtx(context.Background(), name, u)
}

// QueryFull is QueryFullCtx without cancellation.
func (r *Router) QueryFull(name string, u graph.VertexID) (*core.QueryResult, error) {
	return r.QueryFullCtx(context.Background(), name, u)
}

// QueryMany is QueryManyCtx without cancellation.
func (r *Router) QueryMany(problem string, sources []graph.VertexID) (*core.MultiResult, error) {
	return r.QueryManyCtx(context.Background(), problem, sources)
}

// QueryAt is QueryAtCtx without cancellation.
func (r *Router) QueryAt(version uint64, problem string, u graph.VertexID) (*core.QueryResult, error) {
	return r.QueryAtCtx(context.Background(), version, problem, u)
}

// Subscribe is SubscribeCtx without cancellation.
func (r *Router) Subscribe(problem string, u graph.VertexID, buffer int) (*core.Subscription, error) {
	return r.SubscribeCtx(context.Background(), problem, u, buffer)
}
