package core_test

import (
	"sync"
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

// TestCacheByteBudget: the LRU evicts from its tail while resident answer
// bytes exceed the budget, counts width-k values and SSNSP counts, keeps
// an over-budget answer alone, and accounts replacements exactly.
func TestCacheByteBudget(t *testing.T) {
	sys, _, _ := buildSystem(t, false, "BFS", "Radii", "SSNSP")
	sys.EnableResultCache(64)
	n := int64(sys.NumVertices())
	bfs := 8 * n // one width-1 answer
	sys.Cache().SetBudget(3 * bfs)
	if m := sys.ResultCacheMetrics(); m.BudgetBytes != 3*bfs || m.Bytes != 0 {
		t.Fatalf("fresh cache metrics %+v", m)
	}
	query := func(problem string, u graph.VertexID) *core.QueryResult {
		t.Helper()
		res, err := sys.Query(problem, u)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	resident := func(problem string, u graph.VertexID) bool {
		_, _, ok := sys.CachedQuery(problem, u, 0, true)
		return ok
	}
	wantBytes := func(want int64, entries int) {
		t.Helper()
		if m := sys.ResultCacheMetrics(); m.Bytes != want || m.Entries != entries {
			t.Fatalf("bytes %d entries %d, want %d and %d (%+v)", m.Bytes, m.Entries, want, entries, m)
		}
	}

	// Eviction order: three answers fit; touching 1 makes 2 the victim.
	for _, u := range []graph.VertexID{1, 2, 3} {
		query("BFS", u)
	}
	wantBytes(3*bfs, 3)
	if !resident("BFS", 1) {
		t.Fatal("expected hit on 1")
	}
	query("BFS", 4)
	if resident("BFS", 2) {
		t.Fatal("byte-budget victim 2 still resident")
	}
	for _, u := range []graph.VertexID{1, 3, 4} {
		if !resident("BFS", u) {
			t.Fatalf("entry %d evicted out of LRU order", u)
		}
	}
	wantBytes(3*bfs, 3)

	// A same-key replacement subtracts the old entry's bytes.
	query("BFS", 3)
	wantBytes(3*bfs, 3)
	if m := sys.ResultCacheMetrics(); m.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", m.Evictions)
	}

	// A width-k Radii answer is larger than the budget: it is kept alone.
	radii := query("Radii", 5)
	if radii.Width <= 1 || int64(len(radii.Values)) != int64(radii.Width)*n {
		t.Fatalf("Radii answer width %d, %d values", radii.Width, len(radii.Values))
	}
	wantBytes(8*int64(len(radii.Values)), 1)
	if !resident("Radii", 5) {
		t.Fatal("over-budget answer not kept")
	}

	// An SSNSP answer counts its counts; it evicts the Radii answer, and a
	// width-1 answer then fits beside it.
	ssnsp := query("SSNSP", 6)
	if len(ssnsp.Counts) == 0 {
		t.Fatal("SSNSP answer has no counts")
	}
	ssnspBytes := 8 * int64(len(ssnsp.Values)+len(ssnsp.Counts))
	wantBytes(ssnspBytes, 1)
	query("BFS", 7)
	wantBytes(ssnspBytes+bfs, 2)
	if !resident("SSNSP", 6) || !resident("BFS", 7) {
		t.Fatal("entries within the budget were evicted")
	}

	// Bytes return to 0 once every answer-holding entry is gone.
	c := core.NewResultCache(2)
	c.SetBudget(bfs)
	c.Put(&core.QueryResult{Problem: "BFS", Source: 1, Values: make([]uint64, 2*n)})
	if m := c.Metrics(); m.Bytes != 16*n || m.Entries != 1 {
		t.Fatalf("over-budget entry not kept alone: %+v", m)
	}
	c.Put(&core.QueryResult{Problem: "BFS", Source: 2})
	c.Put(&core.QueryResult{Problem: "BFS", Source: 3})
	if m := c.Metrics(); m.Bytes != 0 || m.Entries != 2 || m.Evictions != 1 {
		t.Fatalf("after evicting every answer: %+v", m)
	}
}

// TestCacheConcurrentGetPutAdvance: lookups copy an entry outside the
// lock while writers replace it and batches age or re-stamp it; every
// served copy must be one whole answer, and the byte account must end
// exact.
func TestCacheConcurrentGetPutAdvance(t *testing.T) {
	const n, rounds = 256, 2000
	c := core.NewResultCache(8)
	c.SetBudget(8 * n) // two keys cannot both stay resident
	answer := func(u graph.VertexID, gen uint64) *core.QueryResult {
		vals, counts := make([]uint64, n), make([]uint64, n)
		for i := range vals {
			vals[i], counts[i] = gen, gen
		}
		return &core.QueryResult{Problem: "SSNSP", Source: u, Values: vals, Counts: counts, Radius: gen, Version: gen}
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(u graph.VertexID) {
			defer wg.Done()
			for g := uint64(1); g <= rounds; g++ {
				c.Put(answer(u, g))
			}
		}(graph.VertexID(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := uint64(1); v <= rounds; v++ {
			if v%2 == 0 {
				c.Advance(nil, v, v+1)
			} else {
				c.Advance([]graph.VertexID{1}, v, v+1)
			}
		}
	}()
	errs := make(chan string, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(u graph.VertexID) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				res, _, ok := c.Get("SSNSP", u, 0, true, 0)
				if !ok {
					continue
				}
				if len(res.Values) != n || len(res.Counts) != n {
					errs <- "served a partial answer"
					return
				}
				for j := range res.Values {
					if res.Values[j] != res.Radius || res.Counts[j] != res.Radius {
						errs <- "served a torn answer"
						return
					}
				}
				res.Values[0] = ^uint64(0) // the copy is the caller's
			}
		}(graph.VertexID(r % 2))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	m := c.Metrics()
	if m.Entries != 1 || m.Bytes != 16*n {
		t.Fatalf("final metrics %+v, want one entry of %d bytes", m, 16*n)
	}
}
