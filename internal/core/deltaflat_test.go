package core

import (
	"context"
	"math/rand"
	"testing"

	"tripoline/internal/graph"
	"tripoline/internal/streamgraph"
)

func deltaTestBatch(rng *rand.Rand, sz, idRange int) []graph.Edge {
	batch := make([]graph.Edge, sz)
	for i := range batch {
		batch[i] = graph.Edge{
			Src: graph.VertexID(rng.Intn(idRange)),
			Dst: graph.VertexID(rng.Intn(idRange)),
			W:   graph.Weight(rng.Intn(50) + 1),
		}
	}
	return batch
}

// TestDeltaFlattenSmoke asserts the delta path is actually exercised by
// the normal system flow: enable → batches. CI runs this in short mode
// as the delta-flatten smoke (exercised, not timed).
func TestDeltaFlattenSmoke(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := streamgraph.FromEdges(256, deltaTestBatch(rng, 2000, 256), true)
	sys := NewSystem(g, 4)
	if err := sys.Enable("BFS"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		sys.ApplyBatch(deltaTestBatch(rng, 20, 256))
	}
	met := g.MirrorMetrics()
	if met.DeltaBuilds.Value() != 3 {
		t.Fatalf("DeltaBuilds = %d, want 3 (one per batch after enable)", met.DeltaBuilds.Value())
	}
	if met.CopiedBytes.Value() == 0 {
		t.Fatal("delta builds copied no bytes from parent mirrors")
	}
	// Each batch retires the parent mirror; with no pinned readers its
	// two slabs recycle immediately.
	if met.SlabPuts.Value() < 6 {
		t.Fatalf("SlabPuts = %d, want ≥ 6 (two slabs per retired parent)", met.SlabPuts.Value())
	}
}

// TestSystemDeltaMirrorEquivalence runs a batch/query sequence through a
// system whose mirrors are patched batch by batch and, at every version,
// through a fresh system loaded with every edge so far in one batch, and
// requires identical query results — the end-to-end proof that patched
// mirrors are transparent.
func TestSystemDeltaMirrorEquivalence(t *testing.T) {
	enable := func(sys *System) *System {
		for _, p := range []string{"BFS", "SSSP"} {
			if err := sys.Enable(p); err != nil {
				t.Fatal(err)
			}
		}
		return sys
	}
	rng := rand.New(rand.NewSource(23))
	edges := deltaTestBatch(rng, 4000, 512)
	delta := enable(NewSystem(streamgraph.FromEdges(512, edges, true), 8))

	for round := 0; round < 4; round++ {
		batch := deltaTestBatch(rng, 60, 540)
		edges = append(edges, batch...)
		delta.ApplyBatch(batch)
		full := enable(NewSystem(streamgraph.FromEdges(512, edges, true), 8))
		for _, p := range []string{"BFS", "SSSP"} {
			for _, u := range []graph.VertexID{0, 17, 311} {
				ra, err := delta.Query(p, u)
				if err != nil {
					t.Fatal(err)
				}
				rb, err := full.Query(p, u)
				if err != nil {
					t.Fatal(err)
				}
				if len(ra.Values) != len(rb.Values) {
					t.Fatalf("round %d %s(%d): value lengths %d vs %d",
						round, p, u, len(ra.Values), len(rb.Values))
				}
				for x := range ra.Values {
					if ra.Values[x] != rb.Values[x] {
						t.Fatalf("round %d %s(%d): value[%d] = %d (patched mirror) vs %d (one-batch load)",
							round, p, u, x, ra.Values[x], rb.Values[x])
					}
				}
			}
		}
	}
	if n := delta.g.MirrorMetrics().DeltaBuilds.Value(); n < 4 {
		t.Fatalf("delta system took the delta path %d times, want ≥ 4", n)
	}
}

// TestDeletionPatchesMirror checks the deletion path: a deletion patches
// the parent mirror with its arcs taken out — no full build — and the next
// insertion patches on from it.
func TestDeletionPatchesMirror(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	seed := deltaTestBatch(rng, 1500, 128)
	g := streamgraph.FromEdges(128, seed, true)
	sys := NewSystem(g, 4)
	if err := sys.Enable("BFS"); err != nil {
		t.Fatal(err)
	}
	sys.ApplyBatch(deltaTestBatch(rng, 20, 128))
	met := g.MirrorMetrics()
	full, delta := met.FullBuilds.Value(), met.DeltaBuilds.Value()

	before := g.Acquire().NumEdges()
	sys.ApplyDeletions(seed[:10])
	if met.FullBuilds.Value() != full || met.DeltaBuilds.Value() != delta+1 {
		t.Fatalf("deletion: full %d->%d delta %d->%d, want exactly one more delta build",
			full, met.FullBuilds.Value(), delta, met.DeltaBuilds.Value())
	}
	if got := g.Acquire().Flatten().NumEdges(); got >= before || got != g.Acquire().NumEdges() {
		t.Fatalf("deletion: mirror holds %d arcs, snapshot %d, before %d", got, g.Acquire().NumEdges(), before)
	}

	sys.ApplyBatch(deltaTestBatch(rng, 20, 128))
	if met.DeltaBuilds.Value() != delta+2 {
		t.Fatalf("insertion after deletion: delta %d->%d, want one more delta build",
			delta+1, met.DeltaBuilds.Value())
	}
}

// TestHistoryTrimRecyclesMirrors checks that with history enabled,
// trimmed-out versions release their mirror slabs (idempotently with the
// writer's own retire).
func TestHistoryTrimRecyclesMirrors(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := streamgraph.FromEdges(128, deltaTestBatch(rng, 1000, 128), true)
	sys := NewSystem(g, 4)
	if err := sys.Enable("BFS"); err != nil {
		t.Fatal(err)
	}
	sys.EnableHistory(2)
	for i := 0; i < 5; i++ {
		sys.ApplyBatch(deltaTestBatch(rng, 15, 128))
	}
	met := g.MirrorMetrics()
	if met.SlabPuts.Value() < 8 {
		t.Fatalf("SlabPuts = %d, want ≥ 8 after five advances under a 2-deep history", met.SlabPuts.Value())
	}
	// Historical queries still work: the ring holds their mirrors.
	vs := sys.HistoryVersions()
	if _, err := sys.QueryAtCtx(context.Background(), vs[0], "BFS", 3); err != nil {
		t.Fatal(err)
	}
}
