package shard

import (
	"context"
	"sync"
	"testing"

	"tripoline/internal/graph"
)

// TestBarrierRaceQueryAtDuringAdvance is the snapshot-barrier race test
// (run under -race in CI): readers repeatedly re-evaluate a pinned old
// version while a writer advances the stores at deliberately different
// rates — every batch's arcs share one tail, so it reaches a single store,
// and the tails' rates differ, so the version vector grows unevenly while
// the version ticks by one each time. The pinned answer must stay
// bit-identical throughout: the barrier entry's per-store snapshot vector
// is immutable once published, so no amount of concurrent advancement may
// bleed into it.
func TestBarrierRaceQueryAtDuringAdvance(t *testing.T) {
	const n = 200
	r := New(n, true, 4, 4)
	if err := r.Enable("SSSP"); err != nil {
		t.Fatal(err)
	}
	r.EnableHistory(256)

	// Seed every shard with a connected backbone plus chords.
	var seedBatch []graph.Edge
	for v := 0; v < n-1; v++ {
		seedBatch = append(seedBatch, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(v + 1), W: 2})
	}
	for v := 0; v < n; v += 7 {
		seedBatch = append(seedBatch, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID((v * 13) % n), W: 3})
	}
	r.ApplyBatch(seedBatch)

	// Pin the current global version and capture reference answers.
	pinned := r.Version()
	sources := []graph.VertexID{0, 17, 99, 150}
	want := make(map[graph.VertexID][]uint64)
	for _, u := range sources {
		res, err := r.QueryAtCtx(context.Background(), pinned, "SSSP", u)
		if err != nil {
			t.Fatal(err)
		}
		want[u] = append([]uint64(nil), res.Values...)
	}

	// singleStoreBatch builds a batch whose every arc leaves tail (a
	// directed graph's arcs are routed by tail), so applying it advances
	// exactly one slot of the version vector.
	singleStoreBatch := func(tail, round int) []graph.Edge {
		var b []graph.Edge
		for j := 0; j < 12; j++ {
			b = append(b, graph.Edge{Src: graph.VertexID(tail), Dst: graph.VertexID((tail + round + 2 + 13*j) % n), W: graph.Weight(1 + round%4)})
		}
		return b
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Writer: tail 0 advances its store 6x as often as tail 150 does.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		tails, rates := []int{0, 50, 100, 150}, []int{6, 3, 2, 1}
		for round := 0; round < 8; round++ {
			for s, rate := range rates {
				for k := 0; k < rate; k++ {
					r.ApplyBatch(singleStoreBatch(tails[s], round*8+k))
				}
			}
		}
	}()
	// Readers: hammer the pinned version (and the live one) concurrently.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					if i > 0 {
						return
					}
				default:
				}
				u := sources[(w+i)%len(sources)]
				res, err := r.QueryAtCtx(context.Background(), pinned, "SSSP", u)
				if err != nil {
					t.Errorf("reader %d: QueryAt(%d): %v", w, pinned, err)
					return
				}
				for v := range want[u] {
					if res.Values[v] != want[u][v] {
						t.Errorf("reader %d: pinned v%d src %d drifted at vertex %d", w, pinned, u, v)
						return
					}
				}
				if _, err := r.Query("SSSP", u); err != nil {
					t.Errorf("reader %d: live query: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// After the dust settles the pinned version must still answer
	// identically.
	for _, u := range sources {
		res, err := r.QueryAtCtx(context.Background(), pinned, "SSSP", u)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want[u] {
			if res.Values[v] != want[u][v] {
				t.Fatalf("post-race: pinned v%d src %d drifted at vertex %d", pinned, u, v)
			}
		}
	}
}

// TestBarrierConcurrentAppliers races multiple writers through the
// admission token: batches serialize, every global version is distinct,
// and the final edge count equals the union of what was applied.
func TestBarrierConcurrentAppliers(t *testing.T) {
	const n = 120
	r := New(n, false, 3, 4)
	if err := r.Enable("BFS"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	versions := make([][]uint64, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				src := graph.VertexID((w*29 + i*11) % n)
				rep := r.ApplyBatch([]graph.Edge{{Src: src, Dst: graph.VertexID((int(src) + 1 + w) % n), W: 1}})
				versions[w] = append(versions[w], rep.Version)
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[uint64]bool)
	for _, vs := range versions {
		for _, v := range vs {
			if seen[v] {
				t.Fatalf("version %d reported twice", v)
			}
			seen[v] = true
		}
	}
	if got := r.Version(); got != 40 {
		t.Fatalf("final version %d, want 40", got)
	}
}
