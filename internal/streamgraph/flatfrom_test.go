package streamgraph

import (
	"encoding/binary"
	"fmt"
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
		wd, ww := want.OutSpan(graph.VertexID(v))
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
	fwd, insertion := snap.flat.InsertedArcs()
	if ok != insertion {
		t.Fatalf("%s: transpose records an insertion: %v, the snapshot: %v", label, ok, insertion)
	}
	wantRec := make([]graph.Edge, 0, len(fwd))
	for _, a := range fwd {
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

// model is the map a mirror chain is held to: the arcs of one version with
// their weights, and its vertex count.
type model struct {
	directed bool
	n        int
	arcs     map[[2]graph.VertexID]graph.Weight
}

func newModel(n int, directed bool) *model {
	return &model{directed: directed, n: n, arcs: map[[2]graph.VertexID]graph.Weight{}}
}

// offers lists a batch's arcs in offer order, each edge followed by its
// mirror on an undirected graph.
func (m *model) offers(batch []graph.Edge) []graph.Edge {
	var out []graph.Edge
	for _, e := range batch {
		out = append(out, e)
		if !m.directed {
			out = append(out, graph.Edge{Src: e.Dst, Dst: e.Src, W: e.W})
		}
	}
	return out
}

// insert applies a batch first-wins and returns the arcs it stored,
// sorted by source and then destination.
func (m *model) insert(batch []graph.Edge) []graph.Edge {
	var rec []graph.Edge
	for _, a := range m.offers(batch) {
		m.n = max(m.n, int(a.Src)+1, int(a.Dst)+1)
		if _, ok := m.arcs[[2]graph.VertexID{a.Src, a.Dst}]; !ok {
			m.arcs[[2]graph.VertexID{a.Src, a.Dst}] = a.W
			rec = append(rec, a)
		}
	}
	graph.SortArcs(rec)
	return rec
}

// remove applies a deletion batch.
func (m *model) remove(batch []graph.Edge) {
	for _, a := range m.offers(batch) {
		delete(m.arcs, [2]graph.VertexID{a.Src, a.Dst})
	}
}

// clone copies the model, for a version kept to be re-read later.
func (m *model) clone() *model {
	c := newModel(m.n, m.directed)
	for k, w := range m.arcs {
		c.arcs[k] = w
	}
	return c
}

// requireModel asserts f holds exactly the model's arcs: its vertex and
// arc counts, every span sorted and at the model's weights, and HasEdge on
// snap (when given) agreeing with the model on every arc and on absent
// pairs.
func requireModel(t *testing.T, label string, f *Flat, snap *Snapshot, m *model) {
	t.Helper()
	if f.n != m.n || f.NumEdges() != int64(len(m.arcs)) {
		t.Fatalf("%s: mirror has %d vertices and %d arcs, want %d and %d", label, f.n, f.NumEdges(), m.n, len(m.arcs))
	}
	if snap != nil && (snap.NumVertices() != m.n || snap.NumEdges() != int64(len(m.arcs))) {
		t.Fatalf("%s: snapshot has %d vertices and %d arcs, want %d and %d", label, snap.NumVertices(), snap.NumEdges(), m.n, len(m.arcs))
	}
	for v := 0; v < f.n; v++ {
		dsts, ws := f.OutSpan(graph.VertexID(v))
		for i, d := range dsts {
			if i > 0 && dsts[i-1] >= d {
				t.Fatalf("%s: span of %d not strictly sorted: %v", label, v, dsts)
			}
			if w, ok := m.arcs[[2]graph.VertexID{graph.VertexID(v), d}]; !ok || w != ws[i] {
				t.Fatalf("%s: arc %d→%d at w%d, model has it: %v at w%d", label, v, d, ws[i], ok, w)
			}
		}
	}
	if snap == nil {
		return
	}
	for k, w := range m.arcs {
		if got, ok := snap.HasEdge(k[0], k[1]); !ok || got != w {
			t.Fatalf("%s: HasEdge(%d, %d) = w%d, %v; want w%d", label, k[0], k[1], got, ok, w)
		}
		if _, ok := m.arcs[[2]graph.VertexID{k[1], k[0]}]; !ok {
			if _, ok := snap.HasEdge(k[1], k[0]); ok {
				t.Fatalf("%s: HasEdge(%d, %d) finds an arc the model lacks", label, k[1], k[0])
			}
		}
	}
}

// requireRecord asserts a mirror's insertion record.
func requireRecord(t *testing.T, label string, f *Flat, want []graph.Edge, ok bool) {
	t.Helper()
	got, gotOK := f.InsertedArcs()
	if gotOK != ok || len(got) != len(want) {
		t.Fatalf("%s: record %v (ok=%v), want %v (ok=%v)", label, got, gotOK, want, ok)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %v, want %v", label, got, want)
		}
	}
}

// TestFlattenFromEquivalence chains patched mirrors across a random batch
// sequence — mixed sizes, duplicate arcs, empty batches, vertex-range
// growth — and holds each one to the map model. FlattenFrom, whatever
// parent it is handed, returns the mirror the writer published.
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
			m := newModel(64, directed)
			idRange := 64
			for round, sz := range sizes {
				idRange += 37 // every non-empty batch can grow the vertex range
				prev := g.Acquire()
				batch := randomBatch(rng, sz, idRange)
				snap, changed := g.InsertEdges(batch)
				rec := m.insert(batch)
				cur := snap.FlattenFrom(prev.BuiltFlat(), changed)
				prev.RetireFlat()
				if cur != snap.Flatten() {
					t.Fatalf("round %d: FlattenFrom and Flatten disagree", round)
				}
				if prev.NumEdges() > 0 && g.MirrorMetrics().DeltaBuilds.Value() == 0 {
					t.Fatalf("round %d: delta path never taken", round)
				}
				requireModel(t, name, cur, snap, m)
				requireRecord(t, name, cur, rec, true)
			}
		})
	}
}

// TestFlattenFromMergesRecord chains merged mirrors over hand-built
// batches that each stress one case of the record — repeats within a
// batch at different weights (the first wins), stored arcs offered again
// at new weights (the stored weight stays), vertex growth with and without
// arcs, a batch that stores nothing — on directed and undirected graphs.
// Every merged mirror must hold the model's arcs and record, its patched
// transpose must equal a fresh TransposeFrom, and the byte counters must
// count the record as walked and every parent arc as copied.
func TestFlattenFromMergesRecord(t *testing.T) {
	batches := [][]graph.Edge{
		{{Src: 5, Dst: 9, W: 3}, {Src: 5, Dst: 2, W: 4}, {Src: 1, Dst: 7, W: 2}, {Src: 9, Dst: 5, W: 8}},
		{{Src: 5, Dst: 6, W: 10}, {Src: 5, Dst: 6, W: 11}, {Src: 6, Dst: 5, W: 12}, {Src: 0, Dst: 3, W: 1}}, // repeats: the first wins
		{{Src: 5, Dst: 9, W: 30}, {Src: 1, Dst: 7, W: 20}, {Src: 5, Dst: 4, W: 5}},                          // stored arcs at new weights
		{{Src: 2, Dst: 40, W: 6}, {Src: 41, Dst: 3, W: 7}},                                                  // growth: 16..39 get no arcs
		{{Src: 5, Dst: 9, W: 99}, {Src: 2, Dst: 40, W: 99}},                                                 // stores nothing
		{{Src: 44, Dst: 44, W: 1}, {Src: 3, Dst: 0, W: 2}, {Src: 3, Dst: 1, W: 3}},                          // growth by a self-loop
	}
	for _, directed := range []bool{true, false} {
		g := New(16, directed)
		m := newModel(16, directed)
		g.Acquire().Flatten().Transposed()
		for step, batch := range batches {
			prev := g.Acquire().Flatten()
			mm := g.MirrorMetrics()
			walked, copied := mm.WalkedBytes.Value(), mm.CopiedBytes.Value()
			snap, _ := g.InsertEdges(batch)
			cur := snap.Flatten()
			rec := m.insert(batch)
			label := fmt.Sprintf("directed=%v step %d", directed, step)
			if got, want := mm.WalkedBytes.Value()-walked, int64(len(rec))*arcBytes; got != want {
				t.Fatalf("%s: walked %d bytes, want %d (the record)", label, got, want)
			}
			if got, want := mm.CopiedBytes.Value()-copied, prev.NumEdges()*arcBytes+int64(prev.n+1)*offEntryBytes; got != want {
				t.Fatalf("%s: copied %d bytes, want %d (every parent arc and offset)", label, got, want)
			}
			requireModel(t, label, cur, snap, m)
			requireRecord(t, label, cur, rec, true)
			if cur.t == nil {
				t.Fatalf("%s: the transpose was not patched", label)
			}
			freshT := TransposeFrom(cur)
			requireSameFlat(t, "merged transpose", cur.t, freshT)
			freshT.Release()
		}
	}
}

// TestTransposedFollowsFlattenFrom carries a transposed mirror down a
// mirror chain — RMAT batches full of repeats that first-wins drops,
// stored arcs offered again at new weights, vertex-range growth, and a
// deletion — and holds it to a from-scratch transpose after every step.
// Each step, the deletion included, must have patched it from the
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
		if step == 5 || step == 6 {
			label = "deletion"
			snap, changed = g.DeleteEdges(batch)
		} else {
			snap, changed = g.InsertEdges(batch)
		}
		f := snap.FlattenFrom(prev.BuiltFlat(), changed)
		prev.RetireFlat()
		if f.t == nil {
			t.Fatalf("step %d (%s): the transpose was not patched", step, label)
		}
		requireTransposeOf(t, label, f.Transposed().(*Flat), snap)
	}
	snap.RetireFlat()
}

// TestFlattenFromFallback: FlattenFrom no longer has a fallback to take —
// whatever parent and changed list it is handed (none, a version too old,
// unsorted, out of range, short or long), it returns the mirror the writer
// published, which holds exactly the version's arcs, and no call builds
// anything.
func TestFlattenFromFallback(t *testing.T) {
	g := New(16, true)
	m := newModel(16, true)
	f0 := g.Acquire().Flatten()
	b1 := []graph.Edge{{Src: 1, Dst: 2, W: 5}, {Src: 3, Dst: 4, W: 7}}
	snap1, changed1 := g.InsertEdges(b1)
	m.insert(b1)
	m1 := m.clone()
	b2 := []graph.Edge{{Src: 2, Dst: 3, W: 9}}
	snap2, _ := g.InsertEdges(b2)
	m.insert(b2)
	f1 := snap1.Flatten()

	met := g.MirrorMetrics()
	full, delta := met.FullBuilds.Value(), met.DeltaBuilds.Value()
	for _, c := range []struct {
		label   string
		snap    *Snapshot
		prev    *Flat
		changed []graph.VertexID
		want    *model
	}{
		{"nil-prev", snap1, nil, changed1, m1},
		{"version-gap", snap2, f0, changed1, m},
		{"unsorted-changed", snap2, f1, []graph.VertexID{9, 2}, m},
		{"oor-changed", snap2, f1, []graph.VertexID{graph.VertexID(snap2.NumVertices())}, m},
		{"short-changed", snap1, f0, changed1[:1], m1},
		{"long-changed", snap1, f0, append(append([]graph.VertexID(nil), changed1...), 5), m1},
	} {
		got := c.snap.FlattenFrom(c.prev, c.changed)
		if got != c.snap.Flatten() {
			t.Fatalf("%s: FlattenFrom built a mirror of its own", c.label)
		}
		requireModel(t, c.label, got, c.snap, c.want)
	}
	if met.FullBuilds.Value() != full || met.DeltaBuilds.Value() != delta {
		t.Fatal("FlattenFrom built a mirror")
	}
}

// TestFlattenFromDeletionInvalidates: a deletion invalidates the insertion
// record — its mirror, patched with the deleted arcs taken out, records no
// insertion — and the insertion after it records one again, patched from
// the deletion's mirror.
func TestFlattenFromDeletionInvalidates(t *testing.T) {
	g := New(8, true)
	m := newModel(8, true)
	b1 := []graph.Edge{{Src: 0, Dst: 1, W: 1}, {Src: 2, Dst: 3, W: 2}, {Src: 4, Dst: 5, W: 3}}
	g.InsertEdges(b1)
	m.insert(b1)

	met := g.MirrorMetrics()
	full, delta := met.FullBuilds.Value(), met.DeltaBuilds.Value()
	gone := []graph.Edge{{Src: 2, Dst: 3}, {Src: 6, Dst: 7}}
	snapDel, changedDel := g.DeleteEdges(gone)
	m.remove(gone)
	if len(changedDel) != 1 || changedDel[0] != 2 {
		t.Fatalf("deletion changed %v, want [2]", changedDel)
	}
	if met.FullBuilds.Value() != full || met.DeltaBuilds.Value() != delta+1 {
		t.Fatal("deletion step was not patched")
	}
	requireModel(t, "post-delete", snapDel.Flatten(), snapDel, m)
	requireRecord(t, "post-delete", snapDel.Flatten(), nil, false)

	b2 := []graph.Edge{{Src: 6, Dst: 7, W: 4}}
	snapIns, _ := g.InsertEdges(b2)
	rec := m.insert(b2)
	if met.DeltaBuilds.Value() != delta+2 {
		t.Fatal("insertion after deletion was not patched")
	}
	requireModel(t, "post-delete-insert", snapIns.Flatten(), snapIns, m)
	requireRecord(t, "post-delete-insert", snapIns.Flatten(), rec, true)
}

// TestFlatLifecycle exercises the reference-counting protocol: the
// mirror survives RetireFlat while it is the latest (the Graph holds it)
// and, once superseded, while a reader holds a pin; it recycles on the
// last release, and poisons its slices so use-after-retire fails fast.
// RetireFlat is idempotent.
func TestFlatLifecycle(t *testing.T) {
	g := New(8, true)
	snap, _ := g.InsertEdges([]graph.Edge{{Src: 0, Dst: 1, W: 1}})
	f := snap.Flatten()
	if snap.BuiltFlat() != f {
		t.Fatal("BuiltFlat must return the mirror")
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
	g.InsertEdges([]graph.Edge{{Src: 1, Dst: 2, W: 1}}) // the Graph lets go
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
// reader goroutines while the writer patches the child mirror from it and
// retires it. Under -race this proves the recycler never
// mutably aliases the parent slab before the pins drop: the readers'
// scans, the child build's bulk copies, and the final recycle would
// otherwise race.
func TestFlattenFromConcurrentReaders(t *testing.T) {
	g := New(32, true)
	rng := rand.New(rand.NewSource(7))
	first := randomBatch(rng, 200, 32)
	snap1, _ := g.InsertEdges(first)
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

	m := newModel(32, true)
	m.insert(first)
	second := randomBatch(rng, 50, 32)
	snap2, _ := g.InsertEdges(second) // patches parent, concurrent with reader scans
	m.insert(second)
	child := snap2.Flatten()
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

	requireModel(t, "child-under-concurrency", child, snap2, m)
	snap2.RetireFlat()
}

// FuzzFlattenFrom decodes arbitrary bytes into a batch sequence
// (including empty batches and vertex growth) and checks the chained
// mirror against the map model, and the transpose patched along with it
// against a from-scratch one, at every version.
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
		m := newModel(8, directed)
		g.Acquire().Flatten().Transposed() // carried down the chain by every patch
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
			snap, _ := g.InsertEdges(batch)
			rec := m.insert(batch)
			cur := snap.Flatten()
			requireModel(t, "fuzz", cur, snap, m)
			requireRecord(t, "fuzz", cur, rec, true)
			if cur.t == nil {
				t.Fatal("fuzz: the transpose was not patched")
			}
			requireTransposeOf(t, "fuzz", cur.Transposed().(*Flat), snap)
		}
	})
}

// FuzzMirrorChain decodes arbitrary bytes into interleaved insertion and
// deletion batches — vertex growth, pairs repeated within a batch and
// across batches, deletions of present and absent arcs — on a directed or
// undirected graph, and after every step holds the published version to
// the map model: its forward spans and weights (first wins), NumEdges,
// HasEdge, its insertion record, and its transpose, carried down the
// chain. Every snapshot nobody retired must still read exactly its own
// version at the end.
func FuzzMirrorChain(f *testing.F) {
	f.Add([]byte("\x01\x05\x01\x00\x02\x00\x02\x00\x01\x00\x01\x00\x02\x00\x80\x01\x01\x00\x02\x00"))
	f.Add([]byte("\x00\x04\x03\x00\x09\x00\x09\x00\x03\x00\x03\x00\x09\x00\x82\x03\x00\x09\x00\x05\x00"))
	f.Add([]byte("\x01\x10\x07\x00\x07\x00\x3a\x00\x00\x00\x81\x07\x00\x07\x00\x03\x3a\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		directed := data[0]&1 == 1
		g := New(8, directed)
		m := newModel(8, directed)
		g.Acquire().Flatten().Transposed()
		type kept struct {
			snap *Snapshot
			m    *model
		}
		var keep []kept
		i := 1
		for step := 0; step < 10 && i < len(data); step++ {
			del := data[i]&0x80 != 0 && step > 0
			sz := int(data[i] % 17)
			i++
			var batch []graph.Edge
			for e := 0; e < sz && i+3 < len(data); e++ {
				src := graph.VertexID(binary.LittleEndian.Uint16(data[i:]) % 60)
				dst := graph.VertexID(binary.LittleEndian.Uint16(data[i+2:]) % 60)
				i += 4
				batch = append(batch, graph.Edge{Src: src, Dst: dst, W: graph.Weight(src)*3 + graph.Weight(dst) + graph.Weight(e)})
			}
			label := fmt.Sprintf("step %d (delete=%v)", step, del)
			prev := g.Acquire()
			var snap *Snapshot
			if del {
				snap, _ = g.DeleteEdges(batch)
				m.remove(batch)
				requireRecord(t, label, snap.Flatten(), nil, false)
			} else {
				snap, _ = g.InsertEdges(batch)
				requireRecord(t, label, snap.Flatten(), m.insert(batch), true)
			}
			if snap.Version() != prev.Version()+1 {
				t.Fatalf("%s: version %d after %d", label, snap.Version(), prev.Version())
			}
			requireModel(t, label, snap.Flatten(), snap, m)
			if snap.Flatten().t == nil {
				t.Fatalf("%s: the transpose was not patched", label)
			}
			requireTransposeOf(t, label, snap.Flatten().Transposed().(*Flat), snap)
			if step%2 == 0 {
				keep = append(keep, kept{snap, m.clone()})
			} else {
				snap.RetireFlat() // the Graph keeps it until it is superseded
			}
		}
		for _, k := range keep {
			requireModel(t, fmt.Sprintf("kept v%d", k.snap.Version()), k.snap.Flatten(), k.snap, k.m)
		}
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
