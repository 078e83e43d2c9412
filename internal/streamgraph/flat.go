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
// Only a full build (Flatten) walks the tree: after an insertion the
// mirror is the parent's with the batch's insertion record merged in
// (FlattenFrom).
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
// the parent version's mirror: the batch's insertion record is merged into
// it — each changed source's span is its parent span merged with the
// source's run of the record, every other span is bulk-copied from prev's
// slab — O(|record| + memcpy) instead of O(V+E), and the C-tree is not
// read. changed must be the source list InsertEdges returned for the batch
// that produced this snapshot. When the delta preconditions do not hold
// (nil prev, version gap, shrunken vertex range, an arc count the record
// does not account for, a changed list that is not the record's sources)
// it falls back to a full build, so the result is always correct. prev
// must stay retained until the call returns; the caller typically retires
// it afterwards (core does, once the new version is published). A delta
// patch also takes over prev's transposed mirror, if built (see
// Transposed), and patches the new mirror's from it.
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
// mirror: prev must mirror the immediate parent version (skipped versions
// invalidate span reuse), the vertex range must not have shrunk, the arc
// count must be prev's plus the insertion record's (a deletion that
// removed arcs fails this — those rebuild in full, matching the standing
// Rebuild recovery policy), and changed must be exactly the record's
// distinct sources in order (the contract of InsertEdges, verified in
// O(|record|)): a list that disagrees means the caller paired the
// snapshot with some other batch's sources, and its patch is not trusted.
func deltaPatchable(s *Snapshot, prev *Flat, changed []graph.VertexID) bool {
	if prev == nil || prev.version+1 != s.version || prev.n > s.n || s.m != prev.off[prev.n]+int64(len(s.inserted)) {
		return false
	}
	j := 0
	for i, a := range s.inserted {
		if i > 0 && a.Src == s.inserted[i-1].Src {
			continue
		}
		if j == len(changed) || changed[j] != a.Src {
			return false
		}
		j++
	}
	return j == len(changed)
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
			i := off[v]
			s.table.Get(v).ForEach(func(e uint64) {
				adj[i], wgt[i] = ctree.Key(e), ctree.Payload(e)
				i++
			})
		}
	})

	met.FullBuilds.Inc()
	met.WalkedBytes.Add(mirrorBytes(off[n], int64(n)))
	f := newMirror(sh, offs, arcs, n, s.version, s.inserted, s.insertion)
	ledgerBuilt(f)
	return f
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
// prev.n ≤ s.n, and changed is the distinct sources of the insertion
// record between them. patch merges the record into prev's spans. A parent
// that holds its transposed mirror hands it over, and the child's is
// patched from it in the same build.
func buildFlatFrom(s *Snapshot, prev *Flat, changed []graph.VertexID) *Flat {
	sh := s.fs()
	met := sh.metrics()
	offs, arcs := patch(sh, prev, s.n, s.inserted)

	// The record's arcs are the walked bytes; every parent arc, copied
	// with its run or merged into a changed span, is a copied one.
	added := int64(len(s.inserted))
	met.DeltaBuilds.Inc()
	met.WalkedBytes.Add(added * arcBytes)
	met.CopiedBytes.Add((offs.off[s.n]-added)*arcBytes + int64(prev.n+1)*offEntryBytes)

	f := newMirror(sh, offs, arcs, s.n, s.version, s.inserted, s.insertion)
	ledgerBuilt(f)
	if pt := prev.takeTransposed(); pt != nil {
		if s.insertion {
			f.t = transposeFrom(sh, f, pt)
		}
		pt.Release()
	}
	if sh.seam.skewDelta.Load() {
		skewFlat(f, changed)
	}
	return f
}

// patch lays out the mirror over n ≥ prev.n vertices that holds prev's
// arcs plus rec's, which is sorted by source and then destination, shares
// no arc with prev, and has every source below n. A head — a source of
// rec — gets its parent span merged with its run of rec; a vertex at or
// past prev.n has an empty parent span. It returns the slabs, with the off
// table filled. Both directions use it: the forward mirror with the
// snapshot's record, the transpose with that record reversed. The cost is
// O(|rec| + n - prev.n) plus one copy of the parent's off table and spans:
//
//  1. the off table is the parent's plus a per-segment constant shift —
//     every index between two consecutive heads shares one shift, the
//     length of the runs before it, so segments rewrite in parallel;
//     growth entries extend it;
//  2. unchanged vertex runs bulk-copy their spans (adj and wgt) straight
//     out of the parent slab;
//  3. each head's span is the merge of its parent span and its run, in
//     parallel.
func patch(sh *flatShared, prev *Flat, n int, rec []graph.Edge) (*offSlab, *arcSlab) {
	oldN := prev.n
	heads, runs := sourceRuns(rec)
	cut := sort.Search(len(heads), func(i int) bool { return int(heads[i]) >= oldN })
	chg := heads[:cut]

	offs := sh.takeOff(int64(n) + 1)
	off := offs.off[:n+1]

	// Segment i covers off indices (chg[i-1], chg[i]], shifted by the arcs
	// the runs before chg[i] add — runs[i] — expressed half-open as
	// [prevIdx, chg[i]+1). The trailing segment runs to oldN+1 with every
	// run below oldN.
	offSpans := make([]span, 0, len(chg)+1+(oldN+1)/flattenGrain)
	prevIdx := 0
	for i, c := range chg {
		offSpans = chunked(offSpans, prevIdx, int(c)+1, int64(runs[i]), flattenGrain)
		prevIdx = int(c) + 1
	}
	offSpans = chunked(offSpans, prevIdx, oldN+1, int64(runs[cut]), flattenGrain)
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
		mergeRun(adj[lo:hi], wgt[lo:hi], dsts, ws, rec[runs[i]:runs[i+1]])
	})
	return offs, arcs
}

// mergeRun writes the span (dsts, ws) and the arcs of run — both sorted
// by destination, sharing none — into adj and wgt in destination order.
func mergeRun(adj []graph.VertexID, wgt []graph.Weight, dsts []graph.VertexID, ws []graph.Weight, run []graph.Edge) {
	i, j := 0, 0
	for k := range adj {
		if j == len(run) || (i < len(dsts) && dsts[i] < run[j].Dst) {
			adj[k], wgt[k] = dsts[i], ws[i]
			i++
		} else {
			adj[k], wgt[k] = run[j].Dst, run[j].W
			j++
		}
	}
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
// stored, at the weight the graph holds for it, sorted by source and then
// destination, with the mirrored arcs on undirected graphs. Arcs the batch offered but first-wins
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
