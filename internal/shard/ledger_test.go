//go:build tripoline_ledger

package shard_test

import (
	"sync"
	"testing"

	"tripoline/internal/graph"
	"tripoline/internal/shard"
	"tripoline/internal/streamgraph"
)

// TestLedgerNoShardLeaks is the teardown proof for the sharded core: run
// a router workload — batches interleaved with concurrent Δ-queries,
// full re-evaluations, batched queries, historical QueryAt, and
// Δ-result cache serving — and then, once every reader has returned,
// consult the refcount ledger. Every per-shard mirror pin taken through
// a union view (the per-query pins of the latest entry, the pins of a
// retained entry behind QueryAt) must have been released; only
// un-retired owner references may remain.
//
// Build with -tags tripoline_ledger; without the tag the ledger is
// compiled out and this test does not exist.
func TestLedgerNoShardLeaks(t *testing.T) {
	if !streamgraph.LedgerEnabled() {
		t.Skip("ledger disabled")
	}
	streamgraph.LedgerReset()

	const n = 150
	r := shard.New(n, false, 3, 6)
	for _, p := range []string{"SSSP", "PageRank"} {
		if err := r.Enable(p); err != nil {
			t.Fatal(err)
		}
	}
	r.EnableHistory(8)
	r.EnableResultCache(16)

	batch := func(round int) []graph.Edge {
		var b []graph.Edge
		for v := 0; v < n; v += 3 {
			b = append(b, graph.Edge{
				Src: graph.VertexID(v),
				Dst: graph.VertexID((v + round + 1) % n),
				W:   graph.Weight(1 + round%5),
			})
		}
		return b
	}

	for round := 0; round < 6; round++ {
		r.ApplyBatch(batch(round))

		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for q := 0; q < 6; q++ {
					src := graph.VertexID((w*37 + q*11) % n)
					if _, err := r.Query("SSSP", src); err != nil {
						t.Errorf("query: %v", err)
					}
					if q%3 == 0 {
						if _, err := r.QueryFull("PageRank", src); err != nil {
							t.Errorf("full: %v", err)
						}
					}
					// Exercise the Δ-result cache serve path (hit or miss,
					// it must not retain a view).
					r.CachedQuery("SSSP", src, 0, true)
				}
			}(w)
		}
		wg.Wait()

		// Historical reads against every retained version.
		for _, ver := range r.HistoryVersions() {
			if _, err := r.QueryAt(ver, "SSSP", graph.VertexID(round%n)); err != nil {
				t.Fatalf("QueryAt(%d): %v", ver, err)
			}
		}
		// A batched query shares one pinned union across sources.
		if _, err := r.QueryMany("SSSP", []graph.VertexID{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}

		// Drop a batch of the same edges to exercise the deletion path too.
		if round == 3 {
			r.ApplyDeletions(batch(0)[:10])
		}
	}

	// One final batch with no readers in flight: every shard retires its
	// previous mirror, the history ring recycles, and nothing else should
	// hold a pin.
	r.ApplyBatch(batch(99))

	for _, l := range streamgraph.LedgerReport() {
		t.Errorf("leaked mirror v%d: %d pin(s) from %v", l.Version, l.Pins, l.Sites)
	}
}
