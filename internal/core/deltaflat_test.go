package core

import (
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

// TestSystemDeltaMirrorEquivalence runs the same batch/query sequence
// through a delta-patching system and one whose every mirror is rebuilt in
// full from the C-tree (Seam().SetForceFull) and requires identical query
// results at every version — the end-to-end proof that delta-patched
// mirrors are transparent.
func TestSystemDeltaMirrorEquivalence(t *testing.T) {
	build := func(forceFull bool) (*System, *rand.Rand) {
		rng := rand.New(rand.NewSource(23))
		g := streamgraph.FromEdges(512, deltaTestBatch(rng, 4000, 512), true)
		g.Seam().SetForceFull(forceFull)
		sys := NewSystem(g, 8)
		for _, p := range []string{"BFS", "SSSP"} {
			if err := sys.Enable(p); err != nil {
				t.Fatal(err)
			}
		}
		return sys, rng
	}
	delta, rngA := build(false)
	full, rngB := build(true)

	for round := 0; round < 4; round++ {
		// Same pseudo-random batch on both systems (same seed stream).
		ba := deltaTestBatch(rngA, 60, 540)
		bb := deltaTestBatch(rngB, 60, 540)
		delta.ApplyBatch(ba)
		full.ApplyBatch(bb)
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
						t.Fatalf("round %d %s(%d): value[%d] = %d (delta mirror) vs %d (full rebuild)",
							round, p, u, x, ra.Values[x], rb.Values[x])
					}
				}
			}
		}
	}
	if n := delta.stores[0].g.MirrorMetrics().DeltaBuilds.Value(); n < 4 {
		t.Fatalf("delta system took the delta path %d times, want ≥ 4", n)
	}
	if n := full.stores[0].g.MirrorMetrics().DeltaBuilds.Value(); n != 0 {
		t.Fatalf("force-full system took the delta path %d times", n)
	}
}

// TestDeletionForcesFullRebuild checks the recovery policy: a deletion
// rebuilds the mirror in full, and the next insertion resumes
// delta-patching from the rebuilt mirror.
func TestDeletionForcesFullRebuild(t *testing.T) {
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

	sys.ApplyDeletions(seed[:10])
	if met.FullBuilds.Value() != full+1 || met.DeltaBuilds.Value() != delta {
		t.Fatalf("deletion: full %d->%d delta %d->%d, want exactly one more full build",
			full, met.FullBuilds.Value(), delta, met.DeltaBuilds.Value())
	}

	sys.ApplyBatch(deltaTestBatch(rng, 20, 128))
	if met.DeltaBuilds.Value() != delta+1 {
		t.Fatalf("insertion after deletion: delta %d->%d, want resume on the delta path",
			delta, met.DeltaBuilds.Value())
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
	// Historical queries still work, mirrors retired or not.
	vs := sys.HistoryVersions()
	if _, err := sys.QueryAt(vs[0], "BFS", 3); err != nil {
		t.Fatal(err)
	}
}
