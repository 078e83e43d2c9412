package core

import (
	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/streamgraph"
)

// View is what the evaluator evaluates over: the flat adjacency of one
// version of the graph. An entry's view over one store is that store's
// *streamgraph.Flat mirror itself — the only store-count-dependent choice
// in evaluation, so S=1 evaluates over exactly the spans, insertion record
// and patched transpose a mirror chain carries, with no indirection on the
// engine's hot path — and over S stores it is the union of their mirrors.
type View interface {
	engine.ArcView
	engine.Versioned
}

// pin pins entry e's mirrors once, for everything one query evaluates
// over it, so that a writer retiring them mid-query cannot recycle the
// slabs under the reader. The release drops every pin. The caller holds
// the barrier's read lock (barrier.pinLatest, barrier.pinAt), under which
// e is in the ring and holds each of its mirrors, so no retain can fail.
func pin(e *entry) (View, func()) {
	if len(e.snaps) == 1 {
		f := pinMirror(e.snaps[0])
		return f, f.Release
	}
	u := &union{e: e, views: make([]*streamgraph.Flat, len(e.snaps))}
	for i, snap := range e.snaps {
		u.views[i] = pinMirror(snap)
	}
	return u, func() {
		for _, f := range u.views {
			f.Release()
		}
	}
}

// pinMirror retains snap's mirror. A held mirror always retains, so a
// failure breaks the ring's invariant and panics.
func pinMirror(snap *streamgraph.Snapshot) *streamgraph.Flat {
	f := snap.Flatten()
	if !f.Retain() {
		panic("core: pinned a mirror no entry holds")
	}
	return f
}

// current is the writer's view of the latest entry e, the counterpart of
// pin: e's mirrors are the stores' latest, held by their graphs until a
// later mutation, which needs the apply token the writer holds — so
// nothing is pinned.
// Over S>1 stores it carries the System's transposed union mirror.
func (s *System) current(e *entry) View {
	if len(e.snaps) == 1 {
		return e.snaps[0].Flatten()
	}
	u := &union{e: e, views: make([]*streamgraph.Flat, len(e.snaps))}
	for i, snap := range e.snaps {
		u.views[i] = snap.Flatten()
	}
	return &writerUnion{union: u, s: s}
}

// union presents one entry's S store mirrors as one View of the whole
// graph. Every arc is stored on its tail's store, so v's out-span is one
// span of one mirror — its owner's — in the destination order a lone
// mirror holds, and the union evaluates exactly like the mirror of the
// unsplit graph: the same spans in the same order over the same vertex
// count, at the entry's version.
type union struct {
	e     *entry
	views []*streamgraph.Flat
}

// writerUnion is the union the writer maintains the standing sets over:
// the only one whose transpose anything asks for.
type writerUnion struct {
	*union
	s *System
}

var _ engine.Transposer = (*writerUnion)(nil)

// Transposed is the union's transpose (engine.Transposer): the System's
// own, carried from entry to entry — patched with the entry's merged
// record when the entry is the insertion right after the one it was built
// for, built from the union's spans otherwise — like a single store's
// mirror chain carries its transpose. Token holder only, but safe for the
// standing sets it maintains concurrently: trMu makes the first caller
// build the transpose and the others wait for it, as a mirror's tmu does.
func (w *writerUnion) Transposed() engine.ArcView {
	s := w.s
	s.trMu.Lock()
	defer s.trMu.Unlock()
	if s.tr == nil || s.tr.Version() != w.e.global {
		next := streamgraph.TransposeFrom(w, s.tr)
		if s.tr != nil {
			s.tr.Release()
		}
		s.tr = next
	}
	return s.tr
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

// Version is the entry's version.
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

// InsertedArcs is the union's insertion record (engine.ArcDelta): the
// records of the stores the entry's mutation reached, merged by tail. A
// store it skipped contributes nothing — its mirror's record describes an
// older version. ok is false when a store it reached reports ok=false (the
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
// no tail (every store holds its own tails' arcs) into one record sorted
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
