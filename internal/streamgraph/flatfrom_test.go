package streamgraph

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"tripoline/internal/gen"
	"tripoline/internal/graph"
)

// requireSameFlat asserts two mirrors are byte-identical: same off, adj
// and wgt contents element for element.
func requireSameFlat(t *testing.T, label string, got, want *Flat) {
	t.Helper()
	if got.n != want.n {
		t.Fatalf("%s: n = %d, want %d", label, got.n, want.n)
	}
	if got.version != want.version {
		t.Fatalf("%s: version = %d, want %d", label, got.version, want.version)
	}
	for v := 0; v <= want.n; v++ {
		if got.off[v] != want.off[v] {
			t.Fatalf("%s: off[%d] = %d, want %d", label, v, got.off[v], want.off[v])
		}
	}
	if len(got.adj) != len(want.adj) || len(got.wgt) != len(want.wgt) {
		t.Fatalf("%s: slab sizes adj %d/%d wgt %d/%d",
			label, len(got.adj), len(want.adj), len(got.wgt), len(want.wgt))
	}
	for i := range want.adj {
		if got.adj[i] != want.adj[i] {
			t.Fatalf("%s: adj[%d] = %d, want %d", label, i, got.adj[i], want.adj[i])
		}
		if got.wgt[i] != want.wgt[i] {
			t.Fatalf("%s: wgt[%d] = %d, want %d", label, i, got.wgt[i], want.wgt[i])
		}
	}
}

// requireTransposeOf asserts that tr is the transpose of snap: span for
// span the in-arcs of a from-scratch transpose of the snapshot's CSR, at
// snap's version, carrying the snapshot's insertion record reversed and
// sorted by head.
func requireTransposeOf(t *testing.T, label string, tr *Flat, snap *Snapshot) {
	t.Helper()
	want := snap.CSR(true).Transpose()
	if tr.n != want.N || tr.version != snap.version {
		t.Fatalf("%s: transpose has %d vertices at v%d, want %d at v%d", label, tr.n, tr.version, want.N, snap.version)
	}
	for v := 0; v < want.N; v++ {
		gd, gw := tr.OutSpan(graph.VertexID(v))
		wd, ww := want.Neighbors(graph.VertexID(v))
		if tr.off[v] != want.Off[v] || len(gd) != len(wd) {
			t.Fatalf("%s: span of %d at %d holds %d arcs, want %d at %d", label, v, tr.off[v], len(gd), len(wd), want.Off[v])
		}
		for i := range wd {
			if gd[i] != wd[i] || gw[i] != ww[i] {
				t.Fatalf("%s: in-arc %d of %d is (%d, w%d), want (%d, w%d)", label, i, v, gd[i], gw[i], wd[i], ww[i])
			}
		}
	}
	rec, ok := tr.InsertedArcs()
	if ok != snap.insertion {
		t.Fatalf("%s: transpose records an insertion: %v, the snapshot: %v", label, ok, snap.insertion)
	}
	wantRec := make([]graph.Edge, 0, len(snap.inserted))
	for _, a := range snap.inserted {
		wantRec = append(wantRec, graph.Edge{Src: a.Dst, Dst: a.Src, W: a.W})
	}
	sort.Slice(wantRec, func(i, j int) bool {
		if wantRec[i].Src != wantRec[j].Src {
			return wantRec[i].Src < wantRec[j].Src
		}
		return wantRec[i].Dst < wantRec[j].Dst
	})
	if len(rec) != len(wantRec) {
		t.Fatalf("%s: transposed record holds %d arcs, want %d", label, len(rec), len(wantRec))
	}
	for i := range rec {
		if rec[i] != wantRec[i] {
			t.Fatalf("%s: transposed record[%d] = %+v, want %+v", label, i, rec[i], wantRec[i])
		}
	}
}

// randomBatch draws sz edges over [0, idRange), with idRange allowed to
// exceed the current vertex count so batches trigger vertex growth.
func randomBatch(rng *rand.Rand, sz, idRange int) []graph.Edge {
	batch := make([]graph.Edge, sz)
	for i := range batch {
		batch[i] = graph.Edge{
			Src: graph.VertexID(rng.Intn(idRange)),
			Dst: graph.VertexID(rng.Intn(idRange)),
			W:   graph.Weight(rng.Intn(100) + 1),
		}
	}
	return batch
}

// TestFlattenFromEquivalence chains delta-patched mirrors across a
// random batch sequence — mixed sizes, duplicate arcs, empty batches,
// vertex-range growth — and checks each one against a fresh full build
// of the same snapshot.
func TestFlattenFromEquivalence(t *testing.T) {
	sizes := []int{0, 1, 7, 50, 300, 0, 25}
	for _, directed := range []bool{true, false} {
		name := "undirected"
		if directed {
			name = "directed"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			g := New(64, directed)
			prev := g.Acquire().MaterializeFlat()
			idRange := 64
			for round, sz := range sizes {
				idRange += 37 // every non-empty batch can grow the vertex range
				snap, changed := g.InsertEdges(randomBatch(rng, sz, idRange))
				cur := snap.MaterializeFlatFrom(prev, changed)
				fresh := snap.MaterializeFlat()
				if sz > 0 && round > 0 {
					// A real insertion must have taken the delta path: its
					// off table depends on prev's, which a full build never
					// reads. Spot-check via the byte counters instead of
					// instrumenting the call: copied bytes only move on the
					// delta path.
					if g.MirrorMetrics().DeltaBuilds.Value() == 0 {
						t.Fatalf("round %d: delta path never taken", round)
					}
				}
				requireSameFlat(t, name, cur, fresh)
				fresh.Release()
				prev.Release()
				prev = cur
			}
			prev.Release()
		})
	}
}

// TestTransposedFollowsFlattenFrom carries a transposed mirror down a
// FlattenFrom chain — RMAT batches full of repeats that first-wins drops,
// stored arcs offered again at new weights, vertex-range growth, and a
// deletion, after which it is rebuilt — and holds it to a from-scratch
// transpose after every step. Each insertion must have patched it from the
// parent's rather than left it to be rebuilt.
func TestTransposedFollowsFlattenFrom(t *testing.T) {
	cfg := gen.Config{LogN: 7, AvgDegree: 12, Directed: true, Seed: 9}
	rmat := gen.RMAT(cfg)
	rng := rand.New(rand.NewSource(17))
	g := New(cfg.N(), true)
	snap, _ := g.InsertEdges(rmat[:len(rmat)/2])
	snap.Flatten().Transposed()
	rest := rmat[len(rmat)/2:]
	idRange := cfg.N()
	for step := 0; step < 12; step++ {
		prev := snap
		var batch []graph.Edge
		switch step % 4 {
		case 0, 2: // RMAT: hub arcs repeat within and across batches
			batch, rest = rest[:100], rest[100:]
		case 1: // stored arcs again at new weights, plus fresh ones
			for len(batch) < 40 {
				v := graph.VertexID(rng.Intn(prev.n))
				if dsts, _ := prev.OutNeighbors(v); len(dsts) > 0 {
					batch = append(batch, graph.Edge{Src: v, Dst: dsts[rng.Intn(len(dsts))], W: graph.Weight(200 + rng.Intn(50))})
				}
			}
			batch = append(batch, randomBatch(rng, 40, idRange)...)
		case 3: // vertex-range growth: arcs into and out of new vertices
			idRange += 9
			batch = randomBatch(rng, 60, idRange)
		}
		var changed []graph.VertexID
		label := "insertion"
		if step == 6 {
			label = "deletion"
			snap, changed = g.DeleteEdges(batch)
		} else {
			snap, changed = g.InsertEdges(batch)
		}
		f := snap.FlattenFrom(prev.BuiltFlat(), changed)
		prev.RetireFlat()
		if patched := f.t != nil; patched != snap.insertion {
			t.Fatalf("step %d (%s): transpose patched = %v", step, label, patched)
		}
		requireTransposeOf(t, label, f.Transposed().(*Flat), snap)
	}
	snap.RetireFlat()
}

// TestFlattenFromFallback checks every precondition that must force a
// full rebuild — and that the result is correct either way.
func TestFlattenFromFallback(t *testing.T) {
	g := New(16, true)
	snap0 := g.Acquire()
	f0 := snap0.MaterializeFlat()
	defer f0.Release()

	snap1, changed1 := g.InsertEdges([]graph.Edge{{Src: 1, Dst: 2, W: 5}, {Src: 3, Dst: 4, W: 7}})
	snap2, _ := g.InsertEdges([]graph.Edge{{Src: 2, Dst: 3, W: 9}})

	before := g.MirrorMetrics().FullBuilds.Value()

	// nil prev.
	if deltaPatchable(snap1, nil, changed1) {
		t.Fatal("nil prev must not be delta-patchable")
	}
	fNil := snap1.MaterializeFlatFrom(nil, changed1)
	// version gap: f0 is two versions behind snap2.
	fGap := snap2.MaterializeFlatFrom(f0, changed1)
	// unsorted changed list.
	f1 := snap1.MaterializeFlat()
	fBad := snap2.MaterializeFlatFrom(f1, []graph.VertexID{9, 2})
	// out-of-range changed entry.
	fOOR := snap2.MaterializeFlatFrom(f1, []graph.VertexID{graph.VertexID(snap2.NumVertices())})

	if got := g.MirrorMetrics().FullBuilds.Value() - before; got != 5 {
		t.Fatalf("FullBuilds advanced by %d, want 5 (every fallback plus the explicit full build)", got)
	}

	fresh1 := snap1.MaterializeFlat()
	requireSameFlat(t, "nil-prev", fNil, fresh1)
	fresh2 := snap2.MaterializeFlat()
	requireSameFlat(t, "version-gap", fGap, fresh2)
	requireSameFlat(t, "unsorted-changed", fBad, fresh2)
	requireSameFlat(t, "oor-changed", fOOR, fresh2)
	for _, f := range []*Flat{fNil, fGap, fBad, fOOR, f1, fresh1, fresh2} {
		f.Release()
	}
}

// TestFlattenFromDeletionInvalidates checks that a deletion step refuses
// span reuse (the arc count shrank) and rebuilds in full — and that a
// later insertion resumes delta-patching from the rebuilt mirror.
func TestFlattenFromDeletionInvalidates(t *testing.T) {
	g := New(8, true)
	snap1, _ := g.InsertEdges([]graph.Edge{{Src: 0, Dst: 1, W: 1}, {Src: 2, Dst: 3, W: 2}, {Src: 4, Dst: 5, W: 3}})
	f1 := snap1.MaterializeFlat()
	defer f1.Release()

	snapDel, changedDel := g.DeleteEdges([]graph.Edge{{Src: 2, Dst: 3}})
	if deltaPatchable(snapDel, f1, changedDel) {
		t.Fatal("deletion step must not be delta-patchable")
	}
	deltaBefore := g.MirrorMetrics().DeltaBuilds.Value()
	fDel := snapDel.MaterializeFlatFrom(f1, changedDel)
	if g.MirrorMetrics().DeltaBuilds.Value() != deltaBefore {
		t.Fatal("deletion step took the delta path")
	}
	fresh := snapDel.MaterializeFlat()
	requireSameFlat(t, "post-delete", fDel, fresh)
	fresh.Release()

	snapIns, changedIns := g.InsertEdges([]graph.Edge{{Src: 6, Dst: 7, W: 4}})
	fIns := snapIns.MaterializeFlatFrom(fDel, changedIns)
	if g.MirrorMetrics().DeltaBuilds.Value() != deltaBefore+1 {
		t.Fatal("insertion after deletion did not resume the delta path")
	}
	freshIns := snapIns.MaterializeFlat()
	requireSameFlat(t, "post-delete-insert", fIns, freshIns)
	freshIns.Release()
	fIns.Release()
	fDel.Release()
}

// TestFlatLifecycle exercises the reference-counting protocol: the
// cached mirror survives RetireFlat while a reader holds a pin, recycles
// on the last release, and poisons its slices so use-after-retire fails
// fast. RetireFlat is idempotent.
func TestFlatLifecycle(t *testing.T) {
	g := New(8, true)
	snap, _ := g.InsertEdges([]graph.Edge{{Src: 0, Dst: 1, W: 1}})
	f := snap.Flatten()
	if snap.BuiltFlat() != f {
		t.Fatal("BuiltFlat must return the cached mirror")
	}
	if !f.Retain() {
		t.Fatal("Retain on a live mirror must succeed")
	}

	putsBefore := g.MirrorMetrics().SlabPuts.Value()
	snap.RetireFlat()
	snap.RetireFlat() // idempotent: must not double-release
	if snap.BuiltFlat() != nil {
		t.Fatal("BuiltFlat must be nil after retire")
	}
	if got := g.MirrorMetrics().SlabPuts.Value(); got != putsBefore {
		t.Fatalf("slabs recycled while a reader held a pin (puts %d -> %d)", putsBefore, got)
	}
	if f.Degree(0) != 1 { // still readable under the pin
		t.Fatal("pinned mirror unreadable after retire")
	}

	f.Release()
	if got := g.MirrorMetrics().SlabPuts.Value(); got != putsBefore+2 {
		t.Fatalf("last release must recycle both slabs: puts %d -> %d", putsBefore, got)
	}
	if f.off != nil || f.adj != nil || f.wgt != nil {
		t.Fatal("recycled mirror must poison its slices")
	}
	if f.Retain() {
		t.Fatal("Retain after the last release must fail")
	}
}

// TestFlattenFromConcurrentReaders pins the parent mirror from several
// reader goroutines while the child mirror delta-patches from it and
// the writer retires it. Under -race this proves the recycler never
// mutably aliases the parent slab before the pins drop: the readers'
// scans, the child build's bulk copies, and the final recycle would
// otherwise race.
func TestFlattenFromConcurrentReaders(t *testing.T) {
	g := New(32, true)
	rng := rand.New(rand.NewSource(7))
	snap1, _ := g.InsertEdges(randomBatch(rng, 200, 32))
	parent := snap1.Flatten()

	// The expected parent contents, deep-copied before any concurrency.
	wantOff := append([]int64(nil), parent.off...)
	wantAdj := append([]graph.VertexID(nil), parent.adj...)

	const readers = 4
	pinned := make(chan struct{}, readers)
	retired := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !parent.Retain() {
				t.Error("reader failed to pin the live parent mirror")
				pinned <- struct{}{}
				return
			}
			defer parent.Release()
			pinned <- struct{}{}
			scan := func() bool {
				for v := 0; v < parent.n; v++ {
					lo, hi := parent.off[v], parent.off[v+1]
					if lo != wantOff[v] || hi != wantOff[v+1] {
						t.Errorf("off[%d] changed under reader: [%d,%d)", v, lo, hi)
						return false
					}
					for i := lo; i < hi; i++ {
						if parent.adj[i] != wantAdj[i] {
							t.Errorf("adj[%d] changed under reader", i)
							return false
						}
					}
				}
				return true
			}
			// Scan continuously while the child build and the retire run,
			// then once more after the retire: the pin must keep the slab
			// intact throughout.
			for {
				select {
				case <-retired:
					scan()
					return
				default:
					if !scan() {
						return
					}
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		<-pinned
	}

	snap2, changed := g.InsertEdges(randomBatch(rng, 50, 32))
	child := snap2.FlattenFrom(parent, changed) // concurrent with reader scans
	putsBefore := g.MirrorMetrics().SlabPuts.Value()
	snap1.RetireFlat()
	if got := g.MirrorMetrics().SlabPuts.Value(); got != putsBefore {
		t.Fatalf("retire recycled a pinned mirror (puts %d -> %d)", putsBefore, got)
	}
	close(retired)
	wg.Wait()
	if got := g.MirrorMetrics().SlabPuts.Value(); got != putsBefore+2 {
		t.Fatalf("parent slabs not recycled after last reader released: puts %d -> %d", putsBefore, got)
	}

	fresh := snap2.MaterializeFlat()
	requireSameFlat(t, "child-under-concurrency", child, fresh)
	fresh.Release()
	snap2.RetireFlat()
}

// FuzzFlattenFrom decodes arbitrary bytes into a batch sequence
// (including empty batches and vertex growth) and checks the chained
// delta mirror against a fresh full build, and the transpose patched along
// with it against a from-scratch one, at every version.
func FuzzFlattenFrom(f *testing.F) {
	f.Add([]byte("\x01\x03\x01\x00\x02\x00\x05\x00\x06\x00\x09\x00\x04\x00"))
	f.Add([]byte("\x00\x00\x02\x30\x00\x31\x00\x32\x00\x33\x00"))
	f.Add([]byte("\x01\x10" + "\x07\x00\x07\x00\x07\x00\x07\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		directed := data[0]&1 == 1
		g := New(8, directed)
		prev := g.Acquire().MaterializeFlat()
		prev.Transposed() // carried down the chain by every patch
		i := 1
		for batches := 0; batches < 8 && i < len(data); batches++ {
			sz := int(data[i] % 17)
			i++
			var batch []graph.Edge
			for e := 0; e < sz && i+3 < len(data); e++ {
				src := graph.VertexID(binary.LittleEndian.Uint16(data[i:]) % 60)
				dst := graph.VertexID(binary.LittleEndian.Uint16(data[i+2:]) % 60)
				i += 4
				batch = append(batch, graph.Edge{Src: src, Dst: dst, W: graph.Weight(src) + graph.Weight(dst) + 1})
			}
			snap, changed := g.InsertEdges(batch)
			cur := snap.MaterializeFlatFrom(prev, changed)
			fresh := snap.MaterializeFlat()
			requireSameFlat(t, "fuzz", cur, fresh)
			if cur.t == nil {
				t.Fatal("fuzz: the transpose was not patched")
			}
			requireTransposeOf(t, "fuzz", cur.Transposed().(*Flat), snap)
			fresh.Release()
			prev.Release()
			prev = cur
		}
		prev.Release()
	})
}

// TestSlabClasses: every size is served by the smallest class that holds
// it, and no class is more than half as big again as the size it serves.
func TestSlabClasses(t *testing.T) {
	sizes := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 1 << 20, 3 << 19, 3<<19 + 1, 1<<21 - 1}
	for n := int64(10); n < 5000; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		c := classFor(n)
		if c >= slabClasses || classCap(c) < n || (c > 0 && classCap(c-1) >= n) || 2*classCap(c) > 3*n+1 {
			t.Fatalf("size %d: class %d holds %d (the class below %d)", n, c, classCap(c), classCap(max(c-1, 0)))
		}
	}
}
