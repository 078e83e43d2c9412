package streamgraph

import (
	"sort"
	"sync"
	"sync/atomic"

	"tripoline/internal/ctree"
	"tripoline/internal/graph"
	"tripoline/internal/parallel"
)

// Flat is a packed CSR-style mirror of one snapshot: the out-edges of
// vertex v are adj[off[v]:off[v+1]] with weights at the same positions
// in wgt, sorted by destination (the C-tree iteration order). It exists
// because Tripoline's workload is build-once, read-many: after a batch
// lands, the same immutable snapshot is traversed by K standing-query
// maintenance rounds plus every user query until the next batch, and a
// flat slab turns each of those per-edge tree walks into an array scan.
//
// A Flat is the engine's ArcView: the C-tree snapshot is the versioned
// store, its mirror is what kernels and standing maintenance evaluate
// over. Its arrays are immutable while at least one reference is held; the slabs
// backing them come from the graph's recycler and return there when the
// last reference drops (see Retain/Release and Snapshot.RetireFlat), so
// readers that outlive the snapshot's tenure as the latest version must
// pin the mirror with Retain.
type Flat struct {
	off     []int64
	adj     []graph.VertexID
	wgt     []graph.Weight
	n       int
	version uint64
	// inserted/insertion are the snapshot's insertion record (see
	// InsertedArcs).
	inserted  []graph.Edge
	insertion bool

	// shared/offs/arcs tie the mirror to the recycler that owns its
	// backing slabs; refs counts the owner (the snapshot, dropped by
	// RetireFlat) plus any pinned readers.
	shared *flatShared
	offs   *offSlab
	arcs   *arcSlab
	refs   atomic.Int64

	// t is the transposed mirror (see Transposed), nil until built or
	// handed over by the parent's; it is recycled with this one. tmu
	// guards it.
	tmu sync.Mutex
	t   *Flat
}

// flattenGrain is the vertex-chunk size used when filling the slab in
// parallel; with power-law degrees the dynamic chunk scheduler evens
// out the skew.
const flattenGrain = 256

// Flatten materializes (once) and returns the flat-adjacency mirror of
// this snapshot via a full build. The first caller pays the build; every
// subsequent caller on the same snapshot gets the cached slab. Safe for
// concurrent use.
func (s *Snapshot) Flatten() *Flat {
	s.flatOnce.Do(func() {
		s.flat = buildFlat(s)
		s.flatBuilt.Store(true)
	})
	return s.flat
}

// FlattenFrom materializes (once) the snapshot's mirror by delta-patching
// the parent version's mirror: unchanged vertex spans are bulk-copied
// from prev's slab and only the changed sources (as returned by
// InsertEdges for the batch that produced this snapshot) plus any
// vertex-range growth are re-walked out of the C-tree — O(|changed| +
// Δdegree + memcpy) instead of O(V+E). When the delta preconditions do
// not hold (nil prev, version gap, shrunken vertex range, unsorted
// changed list) it falls back to a full build, so the result is always
// correct. prev must stay retained until the call returns; the caller
// typically retires it afterwards (core does, once the new version is
// published). A delta patch also takes
// over prev's transposed mirror, if built (see Transposed), and patches
// the new mirror's from it.
//
// Like Flatten, the build happens at most once per snapshot; a later
// Flatten/FlattenFrom call returns the cached mirror regardless of which
// path built it.
func (s *Snapshot) FlattenFrom(prev *Flat, changed []graph.VertexID) *Flat {
	s.flatOnce.Do(func() {
		s.flat = buildFlatDelta(s, prev, changed)
		s.flatBuilt.Store(true)
	})
	return s.flat
}

// BuiltFlat returns the snapshot's mirror if it has been materialized
// and not yet retired, else nil. It never triggers a build — this is
// how core decides whether the next version can delta-patch.
func (s *Snapshot) BuiltFlat() *Flat {
	if s.flatBuilt.Load() && !s.flatRetired.Load() {
		return s.flat
	}
	return nil
}

// RetireFlat drops the snapshot's owner reference on its mirror, letting
// the backing slabs recycle once pinned readers release theirs. It is
// idempotent and a no-op when no mirror was ever built; core's writer
// calls it once the version that superseded the snapshot is published.
func (s *Snapshot) RetireFlat() {
	if !s.flatBuilt.Load() {
		return
	}
	if s.flatRetired.CompareAndSwap(false, true) {
		ledgerRetire(s.flat)
		s.flat.Release()
	}
}

// MaterializeFlat builds a fresh, uncached mirror of the snapshot (full
// walk). The caller owns the sole reference and must Release it: a reader
// that could not retain the shared mirror evaluates over one of these
// (core's pin contract), and benchmarks use it to measure builds without
// the per-snapshot cache getting in the way.
func (s *Snapshot) MaterializeFlat() *Flat {
	f := buildFlat(s)
	ledgerPrivate(f)
	return f
}

// MaterializeFlatFrom is FlattenFrom without the per-snapshot cache: it
// builds a fresh mirror (delta-patched when the preconditions hold, full
// otherwise) that the caller owns and must Release.
func (s *Snapshot) MaterializeFlatFrom(prev *Flat, changed []graph.VertexID) *Flat {
	f := buildFlatDelta(s, prev, changed)
	ledgerPrivate(f)
	return f
}

// buildFlatDelta delta-patches prev into s's mirror when the preconditions
// hold and the seam does not force the full path, else builds in full.
func buildFlatDelta(s *Snapshot, prev *Flat, changed []graph.VertexID) *Flat {
	if deltaPatchable(s, prev, changed) && !s.fs().seam.forceFull.Load() {
		return buildFlatFrom(s, prev, changed)
	}
	return buildFlat(s)
}

// deltaPatchable reports whether prev's spans can seed this snapshot's
// mirror: prev must mirror the immediate parent version (skipped
// versions invalidate span reuse), the vertex range and the arc count
// must not have shrunk (a shrunken arc count means the step was a
// deletion — those rebuild in full, matching the standing Rebuild
// recovery policy), and changed must be sorted, unique and in range
// (the contract of InsertEdges; verified in O(|changed|) because a
// violation would silently corrupt the mirror).
func deltaPatchable(s *Snapshot, prev *Flat, changed []graph.VertexID) bool {
	if prev == nil || prev.version+1 != s.version || prev.n > s.n || s.m < prev.off[prev.n] {
		return false
	}
	last := -1
	for _, c := range changed {
		if int(c) <= last || int(c) >= s.n {
			return false
		}
		last = int(c)
	}
	return true
}

func buildFlat(s *Snapshot) *Flat {
	sh := s.fs()
	met := sh.metrics()
	n := s.n

	offs := sh.takeOff(int64(n) + 1)
	off := offs.off[:n+1]
	off[0] = 0 // recycled slabs carry stale data
	parallel.For(n, func(v int) {
		off[v+1] = int64(s.table.Get(v).Size())
	})
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}

	arcs := sh.takeArc(off[n])
	adj := arcs.adj[:off[n]]
	wgt := arcs.wgt[:off[n]]
	parallel.ForRange(n, flattenGrain, func(start, end int) {
		for v := start; v < end; v++ {
			s.walk(v, adj[off[v]:off[v+1]], wgt[off[v]:off[v+1]])
		}
	})

	met.FullBuilds.Inc()
	met.WalkedBytes.Add(mirrorBytes(off[n], int64(n)))
	f := newMirror(sh, offs, arcs, n, s.version, s.inserted, s.insertion)
	ledgerBuilt(f)
	return f
}

// walk writes v's out-arcs, read off its C-tree, into adj and wgt, which
// hold exactly its degree.
func (s *Snapshot) walk(v int, adj []graph.VertexID, wgt []graph.Weight) {
	i := 0
	s.table.Get(v).ForEach(func(e uint64) {
		adj[i] = ctree.Key(e)
		wgt[i] = ctree.Payload(e)
		i++
	})
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

// buildFlatFrom builds the snapshot's mirror from the parent version's.
// Preconditions (deltaPatchable): prev mirrors version s.version-1 with
// prev.n ≤ s.n, and changed is the sorted unique in-range source list of
// the batch between them. Unchanged vertex runs are copied out of the
// parent slab; changed sources and the whole vertex-range growth re-walk
// their C-trees (patch). A parent that holds its transposed mirror hands
// it over, and the child's is patched from it in the same build.
func buildFlatFrom(s *Snapshot, prev *Flat, changed []graph.VertexID) *Flat {
	sh := s.fs()
	met := sh.metrics()
	oldN, n := prev.n, s.n

	// Changed sources at or past the parent's vertex range fall in the
	// growth region [oldN, n), which is re-walked wholesale.
	cut := sort.Search(len(changed), func(i int) bool { return int(changed[i]) >= oldN })
	walked := changed[:cut:cut]
	for v := oldN; v < n; v++ {
		walked = append(walked, graph.VertexID(v))
	}
	offs, arcs, walkedArcs := patch(sh, prev, n, walked,
		func(i int) int64 { return int64(s.table.Get(int(walked[i])).Size()) },
		func(i int, adj []graph.VertexID, wgt []graph.Weight) { s.walk(int(walked[i]), adj, wgt) })

	m := offs.off[n]
	met.DeltaBuilds.Inc()
	met.WalkedBytes.Add(walkedArcs * arcBytes)
	met.CopiedBytes.Add((m-walkedArcs)*arcBytes + int64(oldN+1)*offEntryBytes)

	f := newMirror(sh, offs, arcs, n, s.version, s.inserted, s.insertion)
	ledgerBuilt(f)
	if pt := prev.takeTransposed(); pt != nil {
		if s.insertion {
			f.t = transposeFrom(sh, f, pt)
		}
		pt.Release()
	}
	if sh.seam.skewDelta.Load() {
		skewFlat(f, changed[:cut])
	}
	return f
}

// patch lays out a mirror over n ≥ prev.n vertices whose spans are prev's
// except at changed — sorted, unique, each below n: vertex changed[i] gets
// deg(i) arcs, written by fill(i, adj, wgt) into slices of exactly that
// length. Vertices at or past prev.n that changed does not list have no
// arcs. It returns the slabs, with the off table filled, and the number of
// arcs fill wrote. The cost is O(|changed| + n - prev.n) plus one copy of
// the parent's off table and unchanged spans:
//
//  1. the off table is the parent's plus a per-segment constant shift —
//     every index between two consecutive changed vertices shares one
//     shift, so segments rewrite in parallel; growth entries extend it;
//  2. unchanged vertex runs bulk-copy their spans (adj and wgt) straight
//     out of the parent slab;
//  3. fill writes the changed spans, in parallel.
func patch(sh *flatShared, prev *Flat, n int, changed []graph.VertexID,
	deg func(i int) int64, fill func(i int, adj []graph.VertexID, wgt []graph.Weight)) (*offSlab, *arcSlab, int64) {
	oldN := prev.n
	newDeg := make([]int64, len(changed))
	parallel.For(len(changed), func(i int) { newDeg[i] = deg(i) })
	cut := sort.Search(len(changed), func(i int) bool { return int(changed[i]) >= oldN })
	chg := changed[:cut]

	// cum[i] is the total degree delta of chg[:i]: off indices in
	// (chg[i-1], chg[i]] shift by cum[i].
	cum := make([]int64, len(chg)+1)
	for i, c := range chg {
		cum[i+1] = cum[i] + newDeg[i] - (prev.off[c+1] - prev.off[c])
	}

	offs := sh.takeOff(int64(n) + 1)
	off := offs.off[:n+1]

	// Segment i covers off indices (chg[i-1], chg[i]] — shift cum[i] —
	// expressed half-open as [prevIdx, chg[i]+1). The trailing segment
	// runs to oldN+1 with the full delta.
	offSpans := make([]span, 0, len(chg)+1+(oldN+1)/flattenGrain)
	prevIdx := 0
	for i, c := range chg {
		offSpans = chunked(offSpans, prevIdx, int(c)+1, cum[i], flattenGrain)
		prevIdx = int(c) + 1
	}
	offSpans = chunked(offSpans, prevIdx, oldN+1, cum[len(chg)], flattenGrain)
	parallel.For(len(offSpans), func(i int) {
		sp := offSpans[i]
		for t := sp.lo; t < sp.hi; t++ {
			off[t] = prev.off[t] + sp.shift
		}
	})
	// Vertex-range growth: a listed vertex takes its degree, any other has
	// none.
	for v, j := oldN, cut; v < n; v++ {
		var d int64
		if j < len(changed) && int(changed[j]) == v {
			d = newDeg[j]
			j++
		}
		off[v+1] = off[v] + d
	}

	m := off[n]
	arcs := sh.takeArc(m)
	adj := arcs.adj[:m]
	wgt := arcs.wgt[:m]

	// Bulk-copy the spans of the unchanged vertex runs between consecutive
	// changed vertices. Source and destination spans have equal length by
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

	parallel.For(len(changed), func(i int) {
		lo, hi := off[changed[i]], off[changed[i]+1]
		fill(i, adj[lo:hi], wgt[lo:hi])
	})

	var filled int64
	for _, d := range newDeg {
		filled += d
	}
	return offs, arcs, filled
}

// arcBytes / offEntryBytes price one adjacency+weight pair and one
// offset entry for the copied/walked byte counters.
const (
	arcBytes      = 8
	offEntryBytes = 8
)

// mirrorBytes is the byte size of a full mirror with m arcs over n
// vertices.
func mirrorBytes(m, n int64) int64 { return m*arcBytes + (n+1)*offEntryBytes }

// Retain pins the mirror for a reader, preventing its slabs from being
// recycled until the matching Release. It reports false when the last
// reference is already gone (the mirror was retired and drained), in
// which case the caller must re-acquire a current snapshot instead.
func (f *Flat) Retain() bool {
	if f.shared != nil && f.shared.seam.denyRetain.Load() {
		return false
	}
	for {
		old := f.refs.Load()
		if old < 1 {
			return false
		}
		if f.refs.CompareAndSwap(old, old+1) {
			ledgerRetain(f)
			return true
		}
	}
}

// Release drops one reference (a reader's pin, or the owner's via
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
	if t := f.takeTransposed(); t != nil {
		t.Release()
	}
	sh := f.shared
	offs, arcs := f.offs, f.arcs
	f.off, f.adj, f.wgt = nil, nil, nil
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
// stored, at the weight the graph holds for it, sorted by source, with the
// mirrored arcs on undirected graphs. Arcs the batch offered but first-wins
// insertion skipped (present already, or repeated within the batch) are
// not in it. ok is false on the initial snapshot and on one published by
// DeleteEdges. The slice aliases the mirror and must not be modified.
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

// ForEachOut calls fn(dst, w) for every out-edge of v in ascending
// destination order (the engine.View iteration non-kernel code uses).
func (f *Flat) ForEachOut(v graph.VertexID, fn func(dst graph.VertexID, w graph.Weight)) {
	lo, hi := f.off[v], f.off[v+1]
	for i := lo; i < hi; i++ {
		fn(f.adj[i], f.wgt[i])
	}
}
