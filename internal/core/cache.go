package core

import (
	"container/list"
	"sync"

	"tripoline/internal/graph"
)

// Δ-result cache: answers to user queries, keyed by (problem, source)
// and stamped with the version they were computed at — the pinned
// snapshot's version, the System's Version.
// The cache never reads a version itself; its owner passes the current
// one to Get and the superseded/new pair to Advance. It leans on two
// properties of the system:
//
//   - a QueryResult is an exact fixpoint for the version it reports, and
//     stays exact for that version forever (snapshots are immutable), so
//     a cached entry is never *wrong* — it can only be *stale*, and
//     staleness is a serving policy (stale=ok / min_version), not a
//     correctness question;
//   - most vertex values survive an update batch unchanged (the
//     stable-vertex-values observation), so when a batch's changed-source
//     list is empty the graph content is identical and every cached
//     answer is re-stamped to the new version for free.
//
// Entries hold copies of the answer and nothing else: no mirror, view or
// snapshot is referenced, so a cached entry carries no release
// obligation.
//
// All operations are O(1) under one mutex (Advance's re-stamp walk
// aside): the serving layer consults the cache *before* its admission
// gate, so a lookup must never be the contended path.

// DefaultCacheEntries is the capacity EnableResultCache(0) selects.
const DefaultCacheEntries = 1024

// CacheMetrics is a point-in-time snapshot of cache activity.
type CacheMetrics struct {
	Entries     int    // entries currently resident
	Capacity    int    // configured LRU capacity
	Hits        uint64 // lookups served (fresh or stale)
	StaleServed uint64 // of which served a non-current version
	Misses      uint64 // lookups that found nothing servable
	Evictions   uint64 // entries dropped by LRU pressure
	Restamps    uint64 // entries re-stamped by empty-changed batches
}

type cacheKey struct {
	problem string
	source  graph.VertexID
}

type cacheEntry struct {
	key cacheKey
	// res holds the cached answer; Values/Counts are owned by the cache
	// (copied in, copied out) so callers can never mutate an entry.
	res QueryResult
	// batchStamp is the cache's mutation counter when the entry was last
	// computed or re-stamped; batches-since = cache.batches - batchStamp.
	batchStamp uint64
}

// ResultCache is the LRU Δ-result cache, one per System. A nil
// *ResultCache is a valid disabled cache: Put and Advance do nothing,
// lookups miss without counting, Metrics reports the zero value.
type ResultCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used; values are *cacheEntry
	entries map[cacheKey]*list.Element
	// batches counts mutations that actually changed the graph (non-empty
	// changed-source list); it is the denominator of entry staleness.
	batches uint64

	hits, staleServed, misses, evictions, restamps uint64
}

// NewResultCache creates a cache holding up to capacity entries
// (capacity <= 0 selects DefaultCacheEntries).
func NewResultCache(capacity int) *ResultCache {
	if capacity <= 0 {
		capacity = DefaultCacheEntries
	}
	return &ResultCache{
		cap:     capacity,
		ll:      list.New(),
		entries: make(map[cacheKey]*list.Element, capacity),
	}
}

// Metrics reports cache activity.
func (c *ResultCache) Metrics() CacheMetrics {
	if c == nil {
		return CacheMetrics{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheMetrics{
		Entries:     c.ll.Len(),
		Capacity:    c.cap,
		Hits:        c.hits,
		StaleServed: c.staleServed,
		Misses:      c.misses,
		Evictions:   c.evictions,
		Restamps:    c.restamps,
	}
}

// Put copies res into the cache, replacing any older entry for the same
// (problem, source); the caller keeps ownership of res. Only the answer
// is retained — work counters and timings describe the evaluation that
// produced it, not a later cache hit.
func (c *ResultCache) Put(res *QueryResult) {
	if c == nil {
		return
	}
	key := cacheKey{problem: res.Problem, source: res.Source}
	e := &cacheEntry{key: key}
	e.res = QueryResult{
		Problem:     res.Problem,
		Source:      res.Source,
		Values:      append([]uint64(nil), res.Values...),
		Width:       res.Width,
		Counts:      append([]uint64(nil), res.Counts...),
		Radius:      res.Radius,
		Incremental: res.Incremental,
		Version:     res.Version,
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e.batchStamp = c.batches
	if old, ok := c.entries[key]; ok {
		old.Value = e
		c.ll.MoveToFront(old)
		return
	}
	c.entries[key] = c.ll.PushFront(e)
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.entries, back.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// Get serves a cached answer for (problem, u) under the serving policy:
// the entry must satisfy entry.Version >= minVersion, and unless staleOK
// it must be current (entry.Version == curVersion, the owner's latest
// version). On a hit it returns a caller-owned copy of the result —
// exact for the version it reports — plus the number of graph-changing
// batches applied since that version (the Age analogue).
func (c *ResultCache) Get(problem string, u graph.VertexID, minVersion uint64, staleOK bool, curVersion uint64) (res *QueryResult, staleBatches uint64, ok bool) {
	if c == nil {
		return nil, 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.entries[cacheKey{problem: problem, source: u}]
	if !found {
		c.misses++
		return nil, 0, false
	}
	e := el.Value.(*cacheEntry)
	if e.res.Version < minVersion || (!staleOK && e.res.Version != curVersion) {
		c.misses++
		return nil, 0, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	if e.res.Version != curVersion {
		c.staleServed++
	}
	out := e.res
	out.Values = append([]uint64(nil), e.res.Values...)
	out.Counts = append([]uint64(nil), e.res.Counts...)
	return &out, c.batches - e.batchStamp, true
}

// GetAt serves a cached answer whose version matches exactly — the
// /v1/queryat fast path. An answer at version v is exact at v forever,
// so this is Get with v as both the floor and the current version.
func (c *ResultCache) GetAt(problem string, u graph.VertexID, version uint64) (*QueryResult, bool) {
	res, _, ok := c.Get(problem, u, version, false, version)
	return res, ok
}

// Advance tells the cache one mutation superseded prevVersion with
// newVersion under the given changed-source list. An empty changed list
// means newVersion's graph content is identical to prevVersion's, so
// entries that were exact at prevVersion are equally exact at newVersion
// and are re-stamped for free (the stable-vertex-values payoff in its
// extreme form) — entries already stale before prevVersion describe an
// older graph and must keep their old stamp. A non-empty changed list
// advances the mutation counter, aging every entry.
func (c *ResultCache) Advance(changed []graph.VertexID, prevVersion, newVersion uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(changed) > 0 {
		c.batches++
		return
	}
	if prevVersion >= newVersion {
		return
	}
	for el := c.ll.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*cacheEntry); e.res.Version == prevVersion {
			e.res.Version = newVersion
			c.restamps++
		}
	}
}
