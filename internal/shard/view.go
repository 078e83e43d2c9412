package shard

import (
	"tripoline/internal/core"
	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/streamgraph"
)

// union presents one barrier entry's S shard mirrors as one core.View of
// the union graph. Every arc is stored on its tail's shard, so v's
// out-span is one span of one mirror — its owner's — in the destination
// order a lone mirror holds, and the union evaluates exactly like the
// mirror of the unsharded graph: the same spans in the same order over the
// same vertex count, at the entry's global version.
type union struct {
	e     *entry
	views []*streamgraph.Flat
}

var _ core.View = (*union)(nil)

// pin pins entry e's S mirrors once, for everything one query evaluates
// over it, under core's view contract: each shard's mirror is retained,
// or — when the shard's writer has since retired it, as for an old entry
// addressed by QueryAt — built privately (core.PinMirror). The release
// drops all S pins.
func pin(e *entry) (*union, func()) {
	u := &union{e: e, views: make([]*streamgraph.Flat, len(e.snaps))}
	releases := make([]func(), len(e.snaps))
	for i, s := range e.snaps {
		u.views[i], releases[i] = core.PinMirror(s)
	}
	return u, func() {
		for _, release := range releases {
			release()
		}
	}
}

// current is the writer's union of the latest entry e, the counterpart of
// core's updateView: e's mirrors are the shards' own, retired only when a
// shard applies its next sub-batch, which needs the apply token the caller
// holds — so nothing is pinned. It carries the router's transposed mirror.
func (r *Router) current(e *entry) *writerUnion {
	u := &union{e: e, views: make([]*streamgraph.Flat, len(e.snaps))}
	for i, s := range e.snaps {
		u.views[i] = s.Flatten()
	}
	return &writerUnion{union: u, r: r}
}

// writerUnion is the union the writer maintains the standing sets over:
// the only one whose transpose anything asks for.
type writerUnion struct {
	*union
	r *Router
}

var _ engine.Transposer = (*writerUnion)(nil)

// Transposed is the union's transpose (engine.Transposer): the router's
// own, carried from entry to entry — patched with the entry's merged
// record when the entry is the insertion right after the one it was built
// for, built from the union's spans otherwise — like a lone System's
// mirror chain carries its transpose. Token holder only.
func (w *writerUnion) Transposed() engine.ArcView {
	r := w.r
	if r.tr == nil || r.tr.Version() != w.e.global {
		next := streamgraph.TransposeFrom(w, r.tr)
		if r.tr != nil {
			r.tr.Release()
		}
		r.tr = next
	}
	return r.tr
}

// mirror returns the mirror that stores v's out-arcs, or nil when v's
// owner has not grown to v — v is then only the head of arcs stored
// elsewhere and has no out-arcs.
func (u *union) mirror(v graph.VertexID) *streamgraph.Flat {
	if f := u.views[u.e.owner[v]]; int(v) < f.NumVertices() {
		return f
	}
	return nil
}

func (u *union) NumVertices() int { return u.e.n }

// Version is the entry's global version.
func (u *union) Version() uint64 { return u.e.global }

func (u *union) Degree(v graph.VertexID) int {
	if f := u.mirror(v); f != nil {
		return f.Degree(v)
	}
	return 0
}

func (u *union) OutSpan(v graph.VertexID) ([]graph.VertexID, []graph.Weight) {
	if f := u.mirror(v); f != nil {
		return f.OutSpan(v)
	}
	return nil, nil
}

func (u *union) ForEachOut(v graph.VertexID, fn func(dst graph.VertexID, w graph.Weight)) {
	if f := u.mirror(v); f != nil {
		f.ForEachOut(v, fn)
	}
}

// InsertedArcs is the union's insertion record (engine.ArcDelta): the
// records of the shards the entry's mutation reached, merged by tail. A
// shard it skipped contributes nothing — its mirror's record describes an
// older version. ok is false when a shard it reached reports ok=false (the
// mutation was a deletion) or when it reached none.
func (u *union) InsertedArcs() ([]graph.Edge, bool) {
	var recs [][]graph.Edge
	for i, f := range u.views {
		if !u.e.applied[i] {
			continue
		}
		arcs, ok := f.InsertedArcs()
		if !ok {
			return nil, false
		}
		recs = append(recs, arcs)
	}
	return mergeByTail(recs), len(recs) > 0
}

// mergeByTail merges arc records that are each sorted by tail and share
// no tail (every shard stores its own tails' arcs) into one record sorted
// by tail: each tail's run is taken whole from the record that holds it.
func mergeByTail(recs [][]graph.Edge) []graph.Edge {
	if len(recs) == 1 {
		return recs[0]
	}
	total := 0
	for _, rec := range recs {
		total += len(rec)
	}
	out := make([]graph.Edge, 0, total)
	for {
		best := -1
		for i, rec := range recs {
			if len(rec) > 0 && (best < 0 || rec[0].Src < recs[best][0].Src) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		rec := recs[best]
		run := 1
		for run < len(rec) && rec[run].Src == rec[0].Src {
			run++
		}
		out = append(out, rec[:run]...)
		recs[best] = rec[run:]
	}
}
