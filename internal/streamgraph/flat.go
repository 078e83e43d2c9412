package streamgraph

import (
	"sort"
	"sync/atomic"

	"tripoline/internal/graph"
	"tripoline/internal/parallel"
)

// Flat is a packed CSR-style mirror of one version: the out-edges of
// vertex v are adj[off[v]:off[v+1]] with weights at the same positions in
// wgt, sorted by destination. It is the store: a Snapshot is its mirror,
// which the writer builds when it publishes the version by patching the
// parent's (patch), and the engine's ArcView, which kernels and standing
// maintenance evaluate over.
//
// Its arrays are immutable while at least one reference is held. The
// references are the snapshot's (dropped by Snapshot.RetireFlat), the
// Graph's while the version is the latest, holders' (Hold) and readers'
// pins (Retain); the slabs backing the arrays come from the graph's
// recycler and return there when the last reference drops, so a reader
// that may outlive the version's tenure as the latest must pin it.
type Flat struct {
	off     []int64
	adj     []graph.VertexID
	wgt     []graph.Weight
	n       int
	version uint64
	// inserted/insertion are the version's insertion record (see
	// InsertedArcs).
	inserted  []graph.Edge
	insertion bool

	// shared/offs/arcs tie the mirror to the recycler that owns its
	// backing slabs; refs counts the references.
	shared *flatShared
	offs   *offSlab
	arcs   *arcSlab
	refs   atomic.Int64

	// t is the private transpose a superseded mirror builds (Transposed),
	// nil until asked for; the shared state's tmu guards it.
	t *Transpose
}

// flattenGrain is the vertex-chunk size used when patching in parallel;
// with power-law degrees the dynamic chunk scheduler evens out the skew.
const flattenGrain = 256

// Flatten returns the snapshot's mirror, built when the version was
// published. Safe for concurrent use.
func (s *Snapshot) Flatten() *Flat { return s.flat }

// FlattenFrom returns the snapshot's mirror, like Flatten: the writer
// patched it from the parent's when it published the version, so prev and
// changed are not consulted.
func (s *Snapshot) FlattenFrom(prev *Flat, changed []graph.VertexID) *Flat { return s.flat }

// BuiltFlat returns the snapshot's mirror unless RetireFlat dropped the
// snapshot's reference, else nil.
func (s *Snapshot) BuiltFlat() *Flat {
	if s.retired.Load() {
		return nil
	}
	return s.flat
}

// RetireFlat drops the snapshot's reference on its mirror, letting the
// backing slabs recycle once the Graph, holders and pinned readers have
// dropped theirs. It is idempotent; core's writer calls it once the
// version that superseded the snapshot is published. A snapshot nobody
// retires keeps its mirror readable for as long as it is referenced.
func (s *Snapshot) RetireFlat() {
	if s.retired.CompareAndSwap(false, true) {
		ledgerRetire(s.flat)
		s.flat.Release()
	}
}

// newMirror assembles a mirror of n vertices over slabs whose off table is
// filled, holding one (the owner's) reference.
func newMirror(sh *flatShared, offs *offSlab, arcs *arcSlab, n int, version uint64, inserted []graph.Edge, insertion bool) *Flat {
	m := offs.off[n]
	f := &Flat{off: offs.off[:n+1], adj: arcs.adj[:m], wgt: arcs.wgt[:m], n: n, version: version,
		inserted: inserted, insertion: insertion,
		shared: sh, offs: offs, arcs: arcs}
	f.refs.Store(1)
	return f
}

// span is one contiguous chunk of delta-patch work: off-table indices
// (or vertices, for arc copies) [lo, hi), with the offset shift that
// applies to the whole chunk.
type span struct {
	lo, hi int
	shift  int64
}

// chunked appends [lo, hi) to spans split into pieces of at most grain,
// so the parallel scheduler can balance them.
func chunked(spans []span, lo, hi int, shift int64, grain int) []span {
	for lo < hi {
		end := lo + grain
		if end > hi {
			end = hi
		}
		spans = append(spans, span{lo: lo, hi: end, shift: shift})
		lo = end
	}
	return spans
}

// patch lays out the mirror over n vertices that holds prev's arcs plus
// rec's — or, with out set, prev's arcs less rec's. rec is sorted by
// source and then destination and has every source below n; merged in, it
// shares no arc with prev, and n ≥ prev.n; taken out, every arc of it is
// prev's, and n = prev.n. A head — a source of rec — gets its parent span
// merged with its run of rec, or with the run taken out; a vertex at or
// past prev.n has an empty parent span. It returns the slabs, with the off
// table filled. Every publish of either direction uses it. The cost is
// O(|rec| + n - prev.n) plus one copy of the parent's off table and spans:
//
//  1. the off table is the parent's plus a per-segment constant shift —
//     every index between two consecutive heads shares one shift, the
//     length of the runs before it, added or taken away, so segments
//     rewrite in parallel; growth entries extend it;
//  2. unchanged vertex runs bulk-copy their spans (adj and wgt) straight
//     out of the parent slab;
//  3. each head's span is its parent span merged with its run, or with
//     the run taken out, in parallel.
func patch(sh *flatShared, prev *Flat, n int, rec []graph.Edge, out bool) (*offSlab, *arcSlab) {
	oldN := prev.n
	heads, runs := sourceRuns(rec)
	cut := sort.Search(len(heads), func(i int) bool { return int(heads[i]) >= oldN })
	chg := heads[:cut]
	sign := int64(1)
	if out {
		sign = -1
	}

	offs := sh.takeOff(int64(n) + 1)
	off := offs.off[:n+1]

	// Segment i covers off indices (chg[i-1], chg[i]], shifted by the arcs
	// the runs before chg[i] add or remove — runs[i] — expressed half-open
	// as [prevIdx, chg[i]+1). The trailing segment runs to oldN+1 with
	// every run below oldN.
	offSpans := make([]span, 0, len(chg)+1+(oldN+1)/flattenGrain)
	prevIdx := 0
	for i, c := range chg {
		offSpans = chunked(offSpans, prevIdx, int(c)+1, sign*int64(runs[i]), flattenGrain)
		prevIdx = int(c) + 1
	}
	offSpans = chunked(offSpans, prevIdx, oldN+1, sign*int64(runs[cut]), flattenGrain)
	parallel.For(len(offSpans), func(i int) {
		sp := offSpans[i]
		for t := sp.lo; t < sp.hi; t++ {
			off[t] = prev.off[t] + sp.shift
		}
	})
	// Vertex-range growth: a head takes its run, any other vertex has no
	// arcs.
	for v, j := oldN, cut; v < n; v++ {
		var d int64
		if j < len(heads) && int(heads[j]) == v {
			d = int64(runs[j+1] - runs[j])
			j++
		}
		off[v+1] = off[v] + d
	}

	m := off[n]
	arcs := sh.takeArc(m)
	adj := arcs.adj[:m]
	wgt := arcs.wgt[:m]

	// Bulk-copy the spans of the unchanged vertex runs between consecutive
	// heads. Source and destination spans have equal length by
	// construction (the shift is constant inside a run).
	copySpans := make([]span, 0, len(chg)+1+oldN/flattenGrain)
	prevIdx = 0
	for _, c := range chg {
		copySpans = chunked(copySpans, prevIdx, int(c), 0, flattenGrain)
		prevIdx = int(c) + 1
	}
	copySpans = chunked(copySpans, prevIdx, oldN, 0, flattenGrain)
	parallel.For(len(copySpans), func(i int) {
		sp := copySpans[i]
		srcLo, srcHi := prev.off[sp.lo], prev.off[sp.hi]
		dstLo := off[sp.lo]
		copy(adj[dstLo:dstLo+(srcHi-srcLo)], prev.adj[srcLo:srcHi])
		copy(wgt[dstLo:dstLo+(srcHi-srcLo)], prev.wgt[srcLo:srcHi])
	})

	parallel.For(len(heads), func(i int) {
		h := heads[i]
		var dsts []graph.VertexID
		var ws []graph.Weight
		if int(h) < oldN {
			dsts, ws = prev.OutSpan(h)
		}
		lo, hi := off[h], off[h+1]
		mergeRun(adj[lo:hi], wgt[lo:hi], dsts, ws, rec[runs[i]:runs[i+1]], out)
	})
	return offs, arcs
}

// mergeRun writes the span (dsts, ws) merged with the arcs of run, or
// with them taken out, into adj and wgt in destination order. Both are
// sorted by destination; merged in, they share no destination, and taken
// out, every destination of run is in dsts (one that is not, which only
// a corrupted span can hold, is skipped). Each run arc finds its place in
// what is left of the span by binary search, and the gap before it is
// block-copied. Taken out, adj and wgt may alias the front of dsts and ws.
func mergeRun(adj []graph.VertexID, wgt []graph.Weight, dsts []graph.VertexID, ws []graph.Weight, run []graph.Edge, out bool) {
	i, k := 0, 0
	for _, a := range run {
		p := i + searchDst(dsts[i:], a.Dst)
		copy(wgt[k:], ws[i:p])
		k += copy(adj[k:], dsts[i:p])
		i = p
		if out {
			if p < len(dsts) && dsts[p] == a.Dst {
				i++
			}
			continue
		}
		adj[k], wgt[k] = a.Dst, a.W
		k++
	}
	copy(wgt[k:], ws[i:])
	copy(adj[k:], dsts[i:])
}

// mergeBack merges the arcs of run into the span held in the first d
// slots of adj and wgt, in place, from the back: each run arc, last
// first, finds its place among the span's arcs still unplaced by binary
// search, and the arcs past that place shift up in one block copy. adj
// and wgt hold the merged span, d+len(run) arcs; span and run are sorted
// by destination and share none.
func mergeBack(adj []graph.VertexID, wgt []graph.Weight, d int64, run []graph.Edge) {
	i := int(d)
	for j := len(run) - 1; j >= 0; j-- {
		a := run[j]
		p := searchDst(adj[:i], a.Dst)
		copy(adj[p+j+1:], adj[p:i])
		copy(wgt[p+j+1:], wgt[p:i])
		adj[p+j], wgt[p+j] = a.Dst, a.W
		i = p
	}
}

// searchDst returns the index of the first destination in dsts, which is
// sorted, that is at least x (len(dsts) when there is none).
func searchDst(dsts []graph.VertexID, x graph.VertexID) int {
	lo, hi := 0, len(dsts)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if dsts[m] < x {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// arcBytes / offEntryBytes price one adjacency+weight pair and one
// offset entry for the copied/walked byte counters.
const (
	arcBytes      = 8
	offEntryBytes = 8
)

// Retain pins the mirror for a reader, preventing its slabs from being
// recycled until the matching Release. It reports false when the last
// reference is already gone (the mirror was retired and drained), in
// which case the caller must re-acquire a current snapshot instead. A pin
// taken while a holder keeps the mirror (core's, under its ring's read
// lock) always succeeds; Save and callers outside core may see false.
func (f *Flat) Retain() bool {
	if !f.acquire() {
		return false
	}
	ledgerRetain(f)
	return true
}

// acquire adds a reference unless the last one is already gone.
func (f *Flat) acquire() bool {
	for {
		old := f.refs.Load()
		if old < 1 {
			return false
		}
		if f.refs.CompareAndSwap(old, old+1) {
			return true
		}
	}
}

// Hold adds a holder's reference, for a structure that keeps the mirror
// for as long as it keeps the version (core's history ring), until the
// matching Unhold. Unlike Retain it is not a reader's pin: it must be
// taken while another reference is known to be held, and panics
// otherwise.
func (f *Flat) Hold() {
	if !f.acquire() {
		panic("streamgraph: Hold on a drained mirror")
	}
	ledgerHold(f)
}

// Unhold drops a reference taken by Hold.
func (f *Flat) Unhold() {
	ledgerUnhold(f)
	f.Release()
}

// Release drops one reference (a reader's pin, or the snapshot's via
// Snapshot.RetireFlat). The last release returns the backing slabs to
// the recycler and poisons the mirror's slices.
func (f *Flat) Release() {
	ledgerRelease(f)
	switch r := f.refs.Add(-1); {
	case r == 0:
		f.recycle()
	case r < 0:
		panic("streamgraph: Flat released more times than retained")
	}
}

// recycle returns the slabs to the pools. Only the last Release calls
// it, so no reader can be scanning the arrays here; nilling them makes
// any use-after-retire fail fast instead of observing a slab that a
// newer build is overwriting.
func (f *Flat) recycle() {
	sh := f.shared
	offs, arcs := f.offs, f.arcs
	f.off, f.adj, f.wgt, f.inserted, f.t = nil, nil, nil, nil, nil
	f.offs, f.arcs = nil, nil
	if sh == nil {
		return
	}
	if offs != nil {
		sh.rec.putOff(offs)
		sh.metrics().SlabPuts.Inc()
	}
	if arcs != nil {
		sh.rec.putArc(arcs)
		sh.metrics().SlabPuts.Inc()
	}
}

// NumVertices returns the number of vertices.
func (f *Flat) NumVertices() int { return f.n }

// NumEdges returns the number of stored arcs.
func (f *Flat) NumEdges() int64 { return f.off[f.n] }

// Version returns the version of the snapshot this mirror was built
// from.
func (f *Flat) Version() uint64 { return f.version }

// InsertedArcs returns the arcs by which this version differs from the
// one before it, when InsertEdges published it: every arc the batch
// stored, at the weight the graph holds for it, sorted by source and then
// destination, with the mirrored arcs on undirected graphs. Arcs the
// batch offered but first-wins insertion skipped (present already, or
// repeated within the batch) are not in it. ok is false on the initial
// snapshot and on one published by DeleteEdges. The slice aliases the mirror and must not be modified.
// Together with Version this is the engine's ArcDelta view.
func (f *Flat) InsertedArcs() (arcs []graph.Edge, ok bool) {
	return f.inserted, f.insertion
}

// Degree returns the out-degree of v.
func (f *Flat) Degree(v graph.VertexID) int {
	return int(f.off[v+1] - f.off[v])
}

// OutSpan returns the out-neighbor and weight slices of v, sorted by
// destination. The slices alias the mirror and must not be modified.
func (f *Flat) OutSpan(v graph.VertexID) ([]graph.VertexID, []graph.Weight) {
	lo, hi := f.off[v], f.off[v+1]
	return f.adj[lo:hi], f.wgt[lo:hi]
}
