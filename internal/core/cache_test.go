package core_test

import (
	"testing"

	"tripoline/internal/core"
	"tripoline/internal/graph"
)

// TestCacheHitServesExactCopy: a query populates the cache; a fresh
// lookup serves an identical, independently owned result.
func TestCacheHitServesExactCopy(t *testing.T) {
	sys, _, edges := buildSystem(t, false, "BFS")
	sys.EnableResultCache(8)
	sys.ApplyBatch(edges[1000:1200])

	res, err := sys.Query("BFS", 13)
	if err != nil {
		t.Fatal(err)
	}
	cached, stale, ok := sys.CachedQuery("BFS", 13, 0, false)
	if !ok {
		t.Fatal("expected cache hit after Query")
	}
	if stale != 0 {
		t.Fatalf("fresh entry reported %d stale batches", stale)
	}
	if cached.Version != res.Version {
		t.Fatalf("cached version %d != query version %d", cached.Version, res.Version)
	}
	if len(cached.Values) != len(res.Values) {
		t.Fatal("cached width differs")
	}
	for i := range res.Values {
		if cached.Values[i] != res.Values[i] {
			t.Fatalf("cached value[%d] = %d, want %d", i, cached.Values[i], res.Values[i])
		}
	}
	// The served copy must be independent of the cache's storage.
	cached.Values[0] = ^uint64(0)
	again, _, ok := sys.CachedQuery("BFS", 13, 0, false)
	if !ok || again.Values[0] == ^uint64(0) {
		t.Fatal("cache entry aliased to served copy")
	}

	m := sys.ResultCacheMetrics()
	if m.Hits < 2 || m.Entries != 1 || m.Capacity != 8 {
		t.Fatalf("unexpected metrics %+v", m)
	}
}

// TestCacheStalePolicy: a graph-changing batch ages entries; stale=ok
// serves the old version with its staleness count, strict mode misses,
// and min_version gates serving.
func TestCacheStalePolicy(t *testing.T) {
	sys, _, edges := buildSystem(t, false, "BFS")
	sys.EnableResultCache(8)

	res, err := sys.Query("BFS", 13)
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.ApplyBatch(edges[1000:1200])
	if rep.ChangedSources == 0 {
		t.Fatal("test batch changed nothing")
	}

	if _, _, ok := sys.CachedQuery("BFS", 13, 0, false); ok {
		t.Fatal("strict lookup served a stale entry")
	}
	cached, stale, ok := sys.CachedQuery("BFS", 13, 0, true)
	if !ok {
		t.Fatal("stale=ok lookup missed")
	}
	if cached.Version != res.Version {
		t.Fatalf("stale entry version %d, want %d", cached.Version, res.Version)
	}
	if stale != 1 {
		t.Fatalf("stale batches = %d, want 1", stale)
	}
	if _, _, ok := sys.CachedQuery("BFS", 13, rep.Version, true); ok {
		t.Fatal("min_version above entry version still served")
	}

	m := sys.ResultCacheMetrics()
	if m.StaleServed != 1 {
		t.Fatalf("stale_served = %d, want 1", m.StaleServed)
	}
}

// TestCacheRestampOnNoopBatch: a batch of already-present edges bumps
// the version without changing content; cached answers are re-stamped
// and stay servable in strict mode.
func TestCacheRestampOnNoopBatch(t *testing.T) {
	sys, _, edges := buildSystem(t, false, "BFS")
	sys.EnableResultCache(8)

	if _, err := sys.Query("BFS", 13); err != nil {
		t.Fatal(err)
	}
	rep := sys.ApplyBatch(edges[:100]) // duplicates of the seeded prefix
	if rep.ChangedSources != 0 {
		t.Skip("duplicate batch unexpectedly changed sources")
	}
	cached, stale, ok := sys.CachedQuery("BFS", 13, rep.Version, false)
	if !ok {
		t.Fatal("re-stamped entry not served in strict mode")
	}
	if cached.Version != rep.Version || stale != 0 {
		t.Fatalf("got version %d stale %d, want %d and 0", cached.Version, stale, rep.Version)
	}
	if m := sys.ResultCacheMetrics(); m.Restamps != 1 {
		t.Fatalf("restamps = %d, want 1", m.Restamps)
	}
}

// TestCacheLRUEviction: capacity bounds residency, evicting the least
// recently used entry.
func TestCacheLRUEviction(t *testing.T) {
	sys, _, _ := buildSystem(t, false, "BFS")
	sys.EnableResultCache(2)

	for _, u := range []graph.VertexID{1, 2} {
		if _, err := sys.Query("BFS", u); err != nil {
			t.Fatal(err)
		}
	}
	// Touch 1 so 2 becomes the LRU victim.
	if _, _, ok := sys.CachedQuery("BFS", 1, 0, false); !ok {
		t.Fatal("expected hit on 1")
	}
	if _, err := sys.Query("BFS", 3); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := sys.CachedQuery("BFS", 2, 0, true); ok {
		t.Fatal("LRU victim still resident")
	}
	if _, _, ok := sys.CachedQuery("BFS", 1, 0, false); !ok {
		t.Fatal("recently used entry evicted")
	}
	if m := sys.ResultCacheMetrics(); m.Evictions != 1 || m.Entries != 2 {
		t.Fatalf("unexpected metrics %+v", m)
	}
}

// TestCacheQueryAt: exact-version serving for the queryat fast path.
func TestCacheQueryAt(t *testing.T) {
	sys, _, edges := buildSystem(t, false, "BFS")
	sys.EnableResultCache(8)

	res, err := sys.Query("BFS", 13)
	if err != nil {
		t.Fatal(err)
	}
	sys.ApplyBatch(edges[1000:1100])
	if _, ok := sys.CachedQueryAt("BFS", 13, res.Version+100); ok {
		t.Fatal("wrong version served")
	}
	cached, ok := sys.CachedQueryAt("BFS", 13, res.Version)
	if !ok || cached.Version != res.Version {
		t.Fatal("exact-version lookup failed")
	}
}

// TestCacheDisabledIsInert: with no cache enabled the lookup paths
// report misses without side effects.
func TestCacheDisabledIsInert(t *testing.T) {
	sys, _, _ := buildSystem(t, false, "BFS")
	if _, err := sys.Query("BFS", 13); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := sys.CachedQuery("BFS", 13, 0, true); ok {
		t.Fatal("disabled cache served a hit")
	}
	if m := sys.ResultCacheMetrics(); m != (core.CacheMetrics{}) {
		t.Fatalf("disabled cache reported metrics %+v", m)
	}
}
