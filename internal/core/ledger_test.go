//go:build tripoline_ledger

package core_test

import (
	"context"
	"sync"
	"testing"

	"tripoline/internal/core"
	"tripoline/internal/graph"
	"tripoline/internal/streamgraph"
)

// TestLedgerCrossCheck is the dynamic half of the refbalance contract:
// it drives every pin-taking subsystem at once — concurrent queries,
// history queries over evicted entries (both through pin) and
// subscription fan-out, with the Δ-result cache on (its entries are
// copies and must add no pin of their own) — then lands a final batch
// with no readers so advance retires the parent mirror, and asserts the
// ledger accounts for every Retain. Run under -race in CI; a non-empty
// report here is either a refbalance false negative or a real leak.
func TestLedgerCrossCheck(t *testing.T) {
	if !streamgraph.LedgerEnabled() {
		t.Fatal("test built without -tags tripoline_ledger")
	}
	for _, directed := range []bool{false, true} {
		ledgerCrossCheck(t, directed)
	}
}

// ledgerCrossCheck is one orientation of TestLedgerCrossCheck. A directed
// graph's standing sets evaluate over the Graph's transpose, which holds
// no mirror reference and takes no slab.
func ledgerCrossCheck(t *testing.T, directed bool) {
	streamgraph.LedgerReset()

	sys, _, edges := buildSystem(t, directed, "BFS", "SSSP")
	sys.EnableResultCache(8)
	sys.EnableHistory(2)

	sub, err := sys.SubscribeCtx(context.Background(), "BFS", 13, 16)
	if err != nil {
		t.Fatal(err)
	}
	client := &subClient{}
	client.drain(t, sub)

	// Interleave batches with concurrent querying so pins are taken and
	// dropped while versions advance and history evicts (capacity 2,
	// three batches: the first recorded snapshot falls out and its
	// mirror retires mid-run).
	cuts := [][2]int{{1000, 1100}, {1100, 1250}, {1250, 1400}}
	for _, cut := range cuts {
		rep := sys.ApplyBatch(edges[cut[0]:cut[1]])
		client.drain(t, sub)

		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(seed int) {
				defer wg.Done()
				for i := 0; i < 8; i++ {
					u := graph.VertexID((seed*31 + i*7) % 160)
					if _, err := sys.Query("BFS", u); err != nil {
						t.Error(err)
						return
					}
					if _, err := sys.QueryFull("SSSP", u); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()

		// Historical queries pin retained snapshots' mirrors.
		for _, v := range sys.HistoryVersions() {
			if _, err := sys.QueryAtCtx(context.Background(), v, "BFS", 13); err != nil {
				t.Fatal(err)
			}
		}
		_ = rep
	}

	sys.Unsubscribe(sub)

	// Final batch with no subscribers and no queries after it: the
	// parent mirror retires, so only un-retired owner references remain —
	// which the ledger does not count as leaks.
	sys.ApplyBatch(edges[900:1000])

	if leaks := streamgraph.LedgerReport(); len(leaks) != 0 {
		for _, l := range leaks {
			t.Errorf("directed=%v: leaked mirror v%d: %d pin(s) from %v", directed, l.Version, l.Pins, l.Sites)
		}
	}
}

// TestLedgerTeardown is the teardown proof for every query path: run a
// workload — batches and a deletion interleaved with concurrent
// Δ-queries, full re-evaluations, batched queries, historical QueryAt,
// and Δ-result cache serving — and then, once every reader has returned,
// consult the refcount ledger. Every mirror pin (the per-query pins of the
// latest snapshot, the pins of a retained one behind QueryAt, the one pin
// of a batched query) must have been released; only un-retired owner
// references may remain.
func TestLedgerTeardown(t *testing.T) {
	if !streamgraph.LedgerEnabled() {
		t.Skip("ledger disabled")
	}
	streamgraph.LedgerReset()

	const n = 150
	r := core.NewSystem(streamgraph.New(n, false), 6)
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
			if _, err := r.QueryAtCtx(context.Background(), ver, "SSSP", graph.VertexID(round%n)); err != nil {
				t.Fatalf("QueryAt(%d): %v", ver, err)
			}
		}
		// A batched query shares one pinned mirror across sources.
		if _, err := r.QueryManyCtx(context.Background(), "SSSP", []graph.VertexID{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}

		// Drop a batch of the same edges to exercise the deletion path too.
		if round == 3 {
			r.ApplyDeletions(batch(0)[:10])
		}
	}

	// One final batch with no readers in flight: it retires the previous
	// mirror, and nothing else should hold a pin.
	r.ApplyBatch(batch(99))

	for _, l := range streamgraph.LedgerReport() {
		t.Errorf("leaked mirror v%d: %d pin(s) from %v", l.Version, l.Pins, l.Sites)
	}
}
