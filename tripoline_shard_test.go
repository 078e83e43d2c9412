package tripoline_test

import (
	"errors"
	"reflect"
	"testing"

	"tripoline"
	"tripoline/internal/gen"
)

// TestFacadeSharded drives the WithShards path end to end: a pre-loaded
// graph is partitioned at construction, more batches stream through the
// facade, and every sharded answer matches an unsharded system fed the
// identical sequence bit for bit.
func TestFacadeSharded(t *testing.T) {
	cfg := gen.Config{Name: "t", LogN: 9, AvgDegree: 8, Directed: false, Seed: 11}
	edges := gen.RMAT(cfg)
	stream := gen.MakeStream(cfg.N(), edges, cfg.Directed, 0.5, 400, 11)

	build := func(opts ...tripoline.Option) *tripoline.System {
		g := tripoline.NewGraph(cfg.N(), tripoline.Undirected)
		g.InsertEdges(stream.Initial) // pre-load before NewSystem partitions
		sys := tripoline.NewSystem(g, opts...)
		for _, p := range []string{"SSSP", "BFS", "PageRank"} {
			if err := sys.Enable(p); err != nil {
				t.Fatal(err)
			}
		}
		return sys
	}
	ref := build(tripoline.WithStandingQueries(4))
	sh := build(tripoline.WithStandingQueries(4), tripoline.WithShards(4))
	if got := sh.Shards(); got != 4 {
		t.Fatalf("Shards()=%d, want 4", got)
	}
	if got := ref.Shards(); got != 1 {
		t.Fatalf("unsharded Shards()=%d, want 1", got)
	}

	for _, b := range stream.Batches {
		rr := ref.ApplyBatch(b)
		sr := sh.ApplyBatch(b)
		if rr.Version != sr.Version {
			t.Fatalf("version %d vs %d", sr.Version, rr.Version)
		}
	}
	for _, p := range []string{"SSSP", "BFS"} {
		for _, u := range []tripoline.VertexID{0, 7, 100, 311} {
			rres, err := ref.Query(p, u)
			if err != nil {
				t.Fatal(err)
			}
			sres, err := sh.Query(p, u)
			if err != nil {
				t.Fatal(err)
			}
			for v := range rres.Values {
				if rres.Values[v] != sres.Values[v] {
					t.Fatalf("%s src %d: sharded diverges at vertex %d", p, u, v)
				}
			}
		}
	}

	// Subscriptions work at every shard count: the sharded system's frames
	// are the unsharded one's.
	rsub, err := ref.Subscribe("SSSP", 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	ssub, err := sh.Subscribe("SSSP", 7, 0)
	if err != nil {
		t.Fatalf("Subscribe on sharded system: %v", err)
	}
	more := gen.RMAT(gen.Config{Name: "t", LogN: 9, AvgDegree: 1, Seed: 12})
	ref.ApplyBatch(more)
	sh.ApplyBatch(more)
	ref.ApplyDeletions(more[:10])
	sh.ApplyDeletions(more[:10])
	for _, kind := range []string{"snapshot", "delta", "delta"} {
		rf, sf := <-rsub.Frames(), <-ssub.Frames()
		if !reflect.DeepEqual(rf, sf) || sf.Kind != kind {
			t.Fatalf("sharded %s frame diverges: %+v vs %+v", kind, sf, rf)
		}
	}
	ref.Unsubscribe(rsub)
	sh.Unsubscribe(ssub)
	if sh.Subscribers() != 0 {
		t.Fatalf("Subscribers()=%d after Unsubscribe", sh.Subscribers())
	}
	if _, err := sh.Query("SSSP", tripoline.VertexID(1<<30)); !errors.Is(err, tripoline.ErrSourceOutOfRange) {
		t.Fatalf("out-of-range source: %v", err)
	}
	if err := sh.ReselectRoots("SSSP"); err != nil {
		t.Fatalf("ReselectRoots on sharded system: %v", err)
	}
	if err := sh.ReselectRoots("PageRank"); err == nil {
		t.Fatal("ReselectRoots(PageRank) should reject (no standing roots)")
	}
}

// TestFacadeShardedEmptyGraph covers the empty bulk-load corner: no
// edges at construction keeps the router at version 0, exactly like a
// fresh unsharded system.
func TestFacadeShardedEmptyGraph(t *testing.T) {
	g := tripoline.NewGraph(32, tripoline.Directed)
	sys := tripoline.NewSystem(g, tripoline.WithShards(2))
	if err := sys.Enable("BFS"); err != nil {
		t.Fatal(err)
	}
	rep := sys.ApplyBatch([]tripoline.Edge{{Src: 0, Dst: 1, W: 1}})
	if rep.Version != 1 {
		t.Fatalf("first batch version=%d, want 1 (empty load must not consume a version)", rep.Version)
	}
	res, err := sys.Query("BFS", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[1] != 1 {
		t.Fatalf("dist(0,1)=%d", res.Values[1])
	}
}
