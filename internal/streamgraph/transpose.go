package streamgraph

import (
	"sort"

	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/parallel"
)

// Transposed adjacency. On a directed graph the reversed standing queries
// q⁻¹(r) (package standing) are a push over the graph with every arc
// reversed, so the writer keeps the latest version's transpose: v's span
// lists the tails of v's in-arcs sorted by tail, at the arcs' weights.
//
// The transpose is writer state — readers never ask for it — so unlike the
// forward mirror it keeps no versions: the Graph owns one, built from the
// latest mirror on the first Transposed call, and every publish after that
// changes it in place. The spans live in one arena, each in a room with a
// slot or more to spare (roomFor), so a span usually grows where it is: a
// publish merges each head's run of the batch's reversed arcs
// (graph.ReversedArcs: sorted by head, then tail) into its span from the
// back, by binary search and block copy, in parallel over heads. A span
// that outgrows its room moves to the arena's free tail; when the tail
// cannot take the batch's moves, the arena is re-packed once, in vertex
// order, into a new one with every span in the room of its new degree. A
// deletion takes the run's arcs out of each head's span in place. So a
// publish costs O(|batch|) plus the merged and moved spans, and a re-pack
// O(n + E), once the batches since the last one have used the free tail;
// no slab comes from or goes to the recycler.

// Transpose is a graph with every arc reversed, the Transposed view of a
// mirror (and of any view, by TransposeFrom). It is an engine.ArcDelta:
// its Version is the mirror's, and when the mirror records an insertion
// its InsertedArcs are the mirror's reversed and sorted by their new tail.
type Transpose struct {
	n int
	// spans[v] places v's in-arcs in the arena adj/wgt; top is the end of
	// the last room: the arena past it is free.
	spans    []inSpan
	adj      []graph.VertexID
	wgt      []graph.Weight
	top      int64
	version  uint64
	inserted []graph.Edge
	// insertion reports whether the version records an insertion.
	insertion bool
}

// inSpan places one vertex's span in the arena: its tails are
// adj[at : at+deg] and their weights wgt[at : at+deg], in a room of
// room ≥ deg slots from at that the span may fill in place. The three
// share one cache line, which a publish's random walk over heads and a
// push's over active vertices read once.
type inSpan struct {
	at        int64
	deg, room uint32
}

// spareShare sets the free tail a build or re-pack leaves past the rooms:
// one slot in spareShare, for the spans that outgrow their rooms to move
// to before the arena is re-packed.
const spareShare = 8

// roomFor is the room a span of d arcs is placed in: d and one slot more
// rounded up to a slab size class (2^k or 1.5·2^k), so a span can take at
// least one more arc in place, and a long one a third of its length. An
// empty span takes no room. The rooms of the small degrees, which most
// vertices have, come from a table: a re-pack asks for every vertex's.
func roomFor(d int64) int64 {
	if d < int64(len(smallRooms)) {
		return int64(smallRooms[d])
	}
	return classCap(classFor(d + 1))
}

// smallRooms[d] is roomFor(d) for d below 64.
var smallRooms = func() (rooms [64]uint8) {
	for d := 1; d < len(rooms); d++ {
		rooms[d] = uint8(classCap(classFor(int64(d) + 1)))
	}
	return rooms
}()

// Transposed returns the mirror's graph with every arc reversed
// (engine.Transposer), a *Transpose. For the latest mirror of its Graph it
// is the Graph's own transpose, built on the first call and changed in
// place by every publish after it, so it is valid until the next version
// is published: it is the writer's, and readers never need it. A
// superseded mirror builds a private copy at its own version instead,
// kept with the mirror. Safe for concurrent use.
func (f *Flat) Transposed() engine.ArcView {
	sh := f.shared
	sh.tmu.Lock()
	defer sh.tmu.Unlock()
	if f == sh.head {
		if sh.t == nil {
			sh.t = TransposeFrom(f)
		}
		return sh.t
	}
	if f.t == nil {
		f.t = TransposeFrom(f)
	}
	return f.t
}

// TransposeFrom builds the transpose of g in one pass over its arcs. Its
// Version and InsertedArcs follow g's as Transposed's do. Tails are
// visited in ascending order, so every span comes out sorted.
func TransposeFrom(g engine.ArcView) *Transpose {
	n := g.NumVertices()
	t := &Transpose{n: n, spans: make([]inSpan, n)}
	switch d := g.(type) {
	case engine.ArcDelta:
		t.version = d.Version()
		if rec, ok := d.InsertedArcs(); ok {
			t.inserted, t.insertion = graph.ReversedArcs(rec), true
		}
	case engine.Versioned:
		t.version = d.Version()
	}
	for v := 0; v < n; v++ {
		dsts, _ := g.OutSpan(graph.VertexID(v))
		for _, h := range dsts {
			t.spans[h].deg++
		}
	}
	for v := range t.spans {
		sp := &t.spans[v]
		sp.at, sp.room = t.top, uint32(roomFor(int64(sp.deg)))
		t.top += int64(sp.room)
		sp.deg = 0 // counted again as the arcs are placed
	}
	t.adj = make([]graph.VertexID, t.top+t.top/spareShare)
	t.wgt = make([]graph.Weight, len(t.adj))
	for v := 0; v < n; v++ {
		dsts, ws := g.OutSpan(graph.VertexID(v))
		for i, h := range dsts {
			sp := &t.spans[h]
			t.adj[sp.at+int64(sp.deg)], t.wgt[sp.at+int64(sp.deg)] = graph.VertexID(v), ws[i]
			sp.deg++
		}
	}
	return t
}

// NumVertices returns the number of vertices.
func (t *Transpose) NumVertices() int { return t.n }

// Degree returns the in-degree of v.
func (t *Transpose) Degree(v graph.VertexID) int { return int(t.spans[v].deg) }

// OutSpan returns the tails of v's in-arcs, sorted, and their weights.
// The slices alias the transpose and must not be modified.
func (t *Transpose) OutSpan(v graph.VertexID) ([]graph.VertexID, []graph.Weight) {
	sp := t.spans[v]
	hi := sp.at + int64(sp.deg)
	return t.adj[sp.at:hi], t.wgt[sp.at:hi]
}

// Version returns the version of the mirror this is the transpose of.
func (t *Transpose) Version() uint64 { return t.version }

// InsertedArcs returns the mirror's insertion record reversed and sorted
// by head, then tail; ok is false when the mirror records none. The slice
// aliases the transpose and must not be modified.
func (t *Transpose) InsertedArcs() ([]graph.Edge, bool) { return t.inserted, t.insertion }

// patch changes t in place into the transpose of the next version, over n
// vertices at version: rev, the version's arcs reversed and sorted by
// head and then tail, merged into the spans, or with out set taken out of
// them. Merged in, rev shares no arc with t and n ≥ t.n; taken out, every
// arc of rev is t's and n = t.n. Only a merge is an insertion record.
func (t *Transpose) patch(n int, version uint64, rev []graph.Edge, out bool) {
	t.version, t.inserted, t.insertion = version, rev, !out
	if out {
		t.inserted = nil
	}
	t.grow(n)
	heads, runs := sourceRuns(rev)
	if out {
		parallel.For(len(heads), func(i int) {
			sp, run := &t.spans[heads[i]], rev[runs[i]:runs[i+1]]
			lo, d := sp.at, int64(sp.deg)
			kept := d - int64(len(run))
			mergeRun(t.adj[lo:lo+kept], t.wgt[lo:lo+kept], t.adj[lo:lo+d], t.wgt[lo:lo+d], run, true)
			sp.deg = uint32(kept)
		})
		return
	}

	// Heads whose spans outgrow their rooms move to the free tail, in head
	// order: heads[i] takes at[i+1]-at[i] slots from at[i] past the top,
	// none when it grows in place. Moves that do not fit re-pack the arena
	// instead, which leaves room for every head.
	at := make([]int64, len(heads)+1)
	parallel.For(len(heads), func(i int) {
		sp := &t.spans[heads[i]]
		if grown := sp.deg + uint32(runs[i+1]-runs[i]); grown > sp.room {
			at[i+1] = roomFor(int64(grown))
		}
	})
	for i := range heads {
		at[i+1] += at[i]
	}
	if t.top+at[len(heads)] > int64(len(t.adj)) {
		t.repack(heads, runs)
		clear(at)
	}
	top := t.top
	t.top += at[len(heads)]
	parallel.For(len(heads), func(i int) {
		sp, run := &t.spans[heads[i]], rev[runs[i]:runs[i+1]]
		lo, d := sp.at, int64(sp.deg)
		grown := d + int64(len(run))
		if at[i+1] > at[i] {
			to := top + at[i]
			mergeRun(t.adj[to:to+grown], t.wgt[to:to+grown], t.adj[lo:lo+d], t.wgt[lo:lo+d], run, false)
			sp.at, sp.room = to, uint32(at[i+1]-at[i])
		} else {
			mergeBack(t.adj[lo:lo+grown], t.wgt[lo:lo+grown], d, run)
		}
		sp.deg = uint32(grown)
	})
}

// grow extends the vertex range to n; a new vertex has no in-arcs.
func (t *Transpose) grow(n int) {
	for ; t.n < n; t.n++ {
		t.spans = append(t.spans, inSpan{at: t.top})
	}
}

// repack lays the spans out again in vertex order in a new arena, each in
// the room of its degree once the runs of rev (heads, split at runs) are
// merged in, so every head's span then grows in place. The arena keeps a
// free tail of one slot in spareShare past the rooms.
//
// Vertices go in chunks of flattenGrain: a chunk's new rooms are set and
// summed in parallel, the sums prefixed serially, and each chunk copied to
// its offset in parallel. Consecutive vertices whose old starts lie
// exactly their new rooms apart — spans that have not moved since the last
// re-pack and keep their rooms — are one block, copied at once.
func (t *Transpose) repack(heads []graph.VertexID, runs []int) {
	chunks := (t.n + flattenGrain - 1) / flattenGrain
	chunk := func(c int) []inSpan { return t.spans[c*flattenGrain : min((c+1)*flattenGrain, t.n)] }
	at := make([]int64, chunks+1)
	parallel.ForGrain(chunks, 1, func(c int) {
		lo := graph.VertexID(c * flattenGrain)
		j := sort.Search(len(heads), func(i int) bool { return heads[i] >= lo })
		var sum int64
		for v := range chunk(c) {
			sp := &t.spans[int(lo)+v]
			d := int64(sp.deg)
			if j < len(heads) && heads[j] == lo+graph.VertexID(v) {
				d += int64(runs[j+1] - runs[j])
				j++
			}
			sp.room = uint32(roomFor(d))
			sum += int64(sp.room)
		}
		at[c+1] = sum
	})
	for c := 0; c < chunks; c++ {
		at[c+1] += at[c]
	}
	total := at[chunks]
	adj := make([]graph.VertexID, total+total/spareShare)
	wgt := make([]graph.Weight, len(adj))
	parallel.ForGrain(chunks, 1, func(c int) {
		spans := chunk(c)
		to := at[c]
		for v := 0; v < len(spans); {
			w := v
			for w+1 < len(spans) && spans[w+1].at == spans[w].at+int64(spans[w].room) {
				w++
			}
			base, end := spans[v].at, spans[w].at+int64(spans[w].deg)
			copy(adj[to:], t.adj[base:end])
			copy(wgt[to:], t.wgt[base:end])
			for u := v; u <= w; u++ {
				spans[u].at += to - base
			}
			to = spans[w].at + int64(spans[w].room)
			v = w + 1
		}
	})
	t.adj, t.wgt, t.top = adj, wgt, total
}

// skew applies the fault seam's corruption (skewFlat) to the transpose:
// bump the first in-arc of the first head that has one.
func (t *Transpose) skew(heads []graph.VertexID) {
	for _, h := range heads {
		if sp := t.spans[h]; sp.deg > 0 {
			t.adj[sp.at] = (t.adj[sp.at] + 1) % graph.VertexID(t.n)
			return
		}
	}
}
