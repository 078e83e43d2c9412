package shard

import (
	"context"
	"fmt"

	"tripoline/internal/core"
	"tripoline/internal/graph"
)

// Query paths of the router. Every one of them is the evaluator's
// (core.Evaluator) over the union of one barrier entry's mirrors — the
// latest entry's, pinned under the evaluator's shared lock, for the
// Δ-based and batched queries and the subscription snapshots; the latest
// or a retained entry's for the full ones — so a result's Version names a
// coherent cut of the partitioned graph, and a router's query is the
// evaluation a lone core.System runs: the same standing root, the same Δ-initialization
// seeded at the source only, the same engine run over the same spans.

// pinLatest is the router's core.Pin: the latest entry's union, pinned.
func (r *Router) pinLatest() (core.View, func()) {
	u, release := pin(r.bar.latest())
	return u, release
}

// QueryCtx answers a user query with Δ-based incremental evaluation
// under cooperative cancellation (see core.Evaluator.Query).
func (r *Router) QueryCtx(ctx context.Context, name string, u graph.VertexID) (*core.QueryResult, error) {
	res, err := r.ev.Query(ctx, name, u, r.pinLatest)
	if err != nil {
		return nil, err
	}
	r.cache.Put(res)
	return res, nil
}

// QueryFullCtx answers a user query with a from-scratch evaluation over
// the union graph — the non-incremental baseline — under cooperative
// cancellation.
func (r *Router) QueryFullCtx(ctx context.Context, name string, u graph.VertexID) (*core.QueryResult, error) {
	view, release := pin(r.bar.latest())
	defer release()
	return r.ev.QueryFull(ctx, name, u, view)
}

// QueryAtCtx answers a user query against the retained barrier entry
// with the given global version, via full evaluation (standing state
// tracks only the latest version, so Δ-initialization is invalid for
// older cuts — same reasoning as core's history path).
func (r *Router) QueryAtCtx(ctx context.Context, version uint64, problem string, u graph.VertexID) (*core.QueryResult, error) {
	if !r.histOn {
		return nil, fmt.Errorf("shard: history not enabled: %w", core.ErrNoSuchVersion)
	}
	e, ok := r.bar.at(version)
	if !ok {
		return nil, fmt.Errorf("shard: version %d not retained (have %v): %w",
			version, r.bar.versions(), core.ErrNoSuchVersion)
	}
	view, release := pin(e)
	defer release()
	return r.ev.QueryFull(ctx, problem, u, view)
}

// QueryManyCtx evaluates up to 64 same-problem user queries in one
// batched Δ-based evaluation (see core.Evaluator.QueryMany).
func (r *Router) QueryManyCtx(ctx context.Context, problem string, sources []graph.VertexID) (*core.MultiResult, error) {
	return r.ev.QueryMany(ctx, problem, sources, r.pinLatest)
}
