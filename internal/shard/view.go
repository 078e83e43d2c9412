package shard

import (
	"tripoline/internal/core"
	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/streamgraph"
)

// pinEntry pins the S mirrors of one barrier entry, once, for everything
// one query (or one mutation's whole-graph maintenance) evaluates over it,
// under core's view contract: each shard's mirror is retained, or — when
// the shard's writer has since retired it, as for an old entry addressed
// by QueryAt — built privately. The release drops all S pins.
func pinEntry(e *entry) ([]*streamgraph.Flat, func()) {
	views := make([]*streamgraph.Flat, len(e.snaps))
	releases := make([]func(), len(e.snaps))
	for i, s := range e.snaps {
		views[i], releases[i] = core.PinMirror(s)
	}
	return views, func() {
		for _, release := range releases {
			release()
		}
	}
}

// unionView presents S per-shard mirrors as one engine.View over the
// union graph, for the evaluations that are not kernels (PageRank, the
// SSNSP counting round). Every logical arc lives in exactly one shard
// (directed edges are routed by source, undirected ones by their smaller
// endpoint), so the union is a disjoint union and no arc is visited
// twice. Per-vertex neighbor order is shard-major rather than globally
// destination-sorted — irrelevant for integer sums and within convergence
// tolerance for PageRank's float accumulation.
//
// Shards can disagree on vertex count when an insertion grew only the
// shard that owned the growing edge, so every access is bounds-guarded
// per shard.
type unionView struct {
	views []*streamgraph.Flat
	n     int
}

// unionOf builds the union of the given (pinned) per-shard mirrors.
func unionOf(views []*streamgraph.Flat) *unionView {
	u := &unionView{views: views}
	for _, v := range views {
		if n := v.NumVertices(); n > u.n {
			u.n = n
		}
	}
	return u
}

var _ engine.View = (*unionView)(nil)

func (u *unionView) NumVertices() int { return u.n }

func (u *unionView) Degree(v graph.VertexID) int {
	d := 0
	for _, view := range u.views {
		if int(v) < view.NumVertices() {
			d += view.Degree(v)
		}
	}
	return d
}

func (u *unionView) ForEachOut(v graph.VertexID, f func(dst graph.VertexID, w graph.Weight)) {
	for _, view := range u.views {
		if int(v) < view.NumVertices() {
			view.ForEachOut(v, f)
		}
	}
}
