package shard

import (
	"context"
	"math/rand"
	"testing"

	"tripoline/internal/core"
	"tripoline/internal/streamgraph"
)

// TestBackendCacheContract drives one serving sequence through a System
// over the caller's graph and through Routers built for 1 and 4 shards:
// insert → query → cached re-ask → no-op batch re-stamp → changed-batch
// staleness → exact-version lookup. All three must agree on versions,
// answers and cache accounting step by step.
func TestBackendCacheContract(t *testing.T) {
	const n = 80
	backends := []struct {
		name string
		be   *core.System
	}{
		{"system", core.NewSystem(streamgraph.New(n, true), 4)},
		{"router-1", New(n, true, 1, 4)},
		{"router-4", New(n, true, 4, 4)},
	}
	var want []uint64 // the first backend's answer; the others must match it
	for _, tc := range backends {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			rng := rand.New(rand.NewSource(9))
			be := tc.be
			if err := be.Enable("SSSP"); err != nil {
				t.Fatal(err)
			}
			be.EnableResultCache(8)
			batch := randBatch(rng, n, 100)
			rep, err := be.ApplyBatchCtx(ctx, batch)
			if err != nil || rep.Version != 1 || be.Version() != 1 {
				t.Fatalf("insert: err=%v report v%d backend v%d, want version 1", err, rep.Version, be.Version())
			}
			if _, _, ok := be.CachedQuery("SSSP", 7, 0, true); ok {
				t.Fatal("cache hit before any query")
			}
			res, err := be.QueryCtx(ctx, "SSSP", 7)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = res.Values
			}
			if res.Version != 1 || !valuesMatch("SSSP", res.Values, want) {
				t.Fatalf("query: version %d, values match the first backend's = %v", res.Version, valuesMatch("SSSP", res.Values, want))
			}

			cached, stale, ok := be.CachedQuery("SSSP", 7, 0, false)
			if !ok || stale != 0 || cached.Version != 1 || !valuesMatch("SSSP", cached.Values, want) {
				t.Fatalf("cached re-ask: ok=%v stale=%d", ok, stale)
			}
			// The served copy is the caller's: scribbling on it must not
			// reach the entry.
			cached.Values[0] = ^uint64(0)

			// Re-inserting the identical batch changes nothing (first-wins
			// dedup): the changed list is empty, so the entry is re-stamped
			// to the new version and still serves as current.
			rep, err = be.ApplyBatchCtx(ctx, batch)
			if err != nil || rep.Version != 2 || rep.ChangedSources != 0 {
				t.Fatalf("no-op batch: err=%v version %d changed %d", err, rep.Version, rep.ChangedSources)
			}
			cached, stale, ok = be.CachedQuery("SSSP", 7, 2, false)
			if !ok || stale != 0 || cached.Version != 2 || !valuesMatch("SSSP", cached.Values, want) {
				t.Fatalf("re-stamped entry: ok=%v stale=%d", ok, stale)
			}

			// A batch that changes the graph leaves the entry stale:
			// current-only lookups miss, stale=ok serves it one batch old,
			// and a min_version above the entry's gates it out.
			rep, err = be.ApplyBatchCtx(ctx, randBatch(rng, n, 50))
			if err != nil || rep.Version != 3 || rep.ChangedSources == 0 {
				t.Fatalf("changing batch: err=%v version %d changed %d", err, rep.Version, rep.ChangedSources)
			}
			if _, _, ok := be.CachedQuery("SSSP", 7, 0, false); ok {
				t.Fatal("current-only lookup served a stale entry")
			}
			if cached, stale, ok = be.CachedQuery("SSSP", 7, 0, true); !ok || stale != 1 || cached.Version != 2 {
				t.Fatalf("stale=ok: ok=%v stale=%d", ok, stale)
			}
			if _, _, ok := be.CachedQuery("SSSP", 7, 3, true); ok {
				t.Fatal("min_version above the entry's version still served")
			}

			// Exact-version lookup: the entry is exact at 2 forever.
			if _, ok := be.CachedQueryAt("SSSP", 7, 3); ok {
				t.Fatal("CachedQueryAt served a version the entry does not have")
			}
			if at, ok := be.CachedQueryAt("SSSP", 7, 2); !ok || at.Version != 2 || !valuesMatch("SSSP", at.Values, want) {
				t.Fatalf("CachedQueryAt(2): ok=%v", ok)
			}

			got := be.ResultCacheMetrics()
			wantM := core.CacheMetrics{Entries: 1, Capacity: 8, Hits: 4, StaleServed: 1, Misses: 4, Restamps: 1}
			if got != wantM {
				t.Fatalf("cache metrics %+v, want %+v", got, wantM)
			}
		})
	}
}
