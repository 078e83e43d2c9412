package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"tripoline/internal/xrand"
)

// client is the shared HTTP side of one run: base URL, connection pool,
// the recorder, and the discovered target shape (vertex count, enabled
// problems, version high-water mark — all advanced as responses come
// back, so ops stay valid while batches grow the graph).
type client struct {
	base      string
	hc        *http.Client
	rec       *Recorder
	problems  []string // immutable after discover
	vertices  atomic.Int64
	version   atomic.Uint64
	subFrames int // frames to consume per subscribe op
}

type statsProbe struct {
	Vertices int      `json:"vertices"`
	Version  uint64   `json:"version"`
	Problems []string `json:"problems"`
}

// discover primes the client from /v1/stats: the op generators need the
// vertex range and the enabled problem set before the first request.
func (c *client) discover(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/stats", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("loadgen: stats probe: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("loadgen: stats probe: status %d", resp.StatusCode)
	}
	var st statsProbe
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fmt.Errorf("loadgen: stats probe: %w", err)
	}
	if st.Vertices <= 0 || len(st.Problems) == 0 {
		return fmt.Errorf("loadgen: target has %d vertices, %d problems — nothing to drive", st.Vertices, len(st.Problems))
	}
	c.vertices.Store(int64(st.Vertices))
	c.version.Store(st.Version)
	c.problems = st.Problems
	return nil
}

// noteVersion advances the version high-water mark from a response.
func (c *client) noteVersion(resp *http.Response) {
	if h := resp.Header.Get("X-Tripoline-Version"); h != "" {
		if v, err := strconv.ParseUint(h, 10, 64); err == nil {
			for {
				cur := c.version.Load()
				if v <= cur || c.version.CompareAndSwap(cur, v) {
					return
				}
			}
		}
	}
}

// worker is one closed-loop request generator: its own deterministic op
// stream and its ring of recently inserted edges (so deletes remove
// edges that actually exist).
type worker struct {
	c      *client
	sched  *Scheduler
	recent []edgeJSON
}

type edgeJSON struct {
	Src uint32 `json:"src"`
	Dst uint32 `json:"dst"`
	W   uint32 `json:"w"`
}

const recentRing = 256

// runCtxDone reports whether the failure is shutdown noise: the run
// context ended while the request was in flight.
func runCtxDone(ctx context.Context) bool { return ctx.Err() != nil }

// get issues one GET, records the outcome under key (and dupKeys), and
// hands the open response to inspect (which must not close it). A nil
// inspect drains and discards the body.
func (w *worker) get(ctx context.Context, key, url string, dupKeys []string, inspect func(*http.Response)) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.c.base+url, nil)
	if err != nil {
		w.c.rec.RecordTransportErr(key, 0)
		return
	}
	w.do(ctx, key, dupKeys, req, inspect)
}

func (w *worker) post(ctx context.Context, key, url string, body any, inspect func(*http.Response)) {
	b, err := json.Marshal(body)
	if err != nil {
		w.c.rec.RecordTransportErr(key, 0)
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.c.base+url, bytes.NewReader(b))
	if err != nil {
		w.c.rec.RecordTransportErr(key, 0)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	w.do(ctx, key, nil, req, inspect)
}

func (w *worker) do(ctx context.Context, key string, dupKeys []string, req *http.Request, inspect func(*http.Response)) {
	start := time.Now()
	resp, err := w.c.hc.Do(req)
	elapsed := time.Since(start)
	if err != nil {
		if !runCtxDone(ctx) {
			w.c.rec.RecordTransportErr(key, elapsed)
		}
		return
	}
	defer resp.Body.Close()
	w.c.noteVersion(resp)
	retryAfter := resp.Header.Get("Retry-After") != ""
	w.c.rec.RecordHTTP(key, resp.StatusCode, retryAfter, elapsed)
	for _, dk := range dupKeys {
		w.c.rec.RecordHTTP(dk, resp.StatusCode, retryAfter, elapsed)
	}
	if inspect != nil && resp.StatusCode == http.StatusOK {
		inspect(resp)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
}

func (w *worker) problem(rng *xrand.RNG) string {
	return w.c.problems[rng.Intn(len(w.c.problems))]
}

func (w *worker) source(rng *xrand.RNG) int {
	n := int(w.c.vertices.Load())
	if n <= 0 {
		return 0
	}
	return rng.Intn(n)
}

// Do executes one sampled op. ctx is the run context; ops that need a
// tighter budget (cancel-storm, subscribe streams) derive from it.
func (w *worker) Do(ctx context.Context, op Op) {
	rng := w.sched.RNG()
	switch op {
	case OpQuery:
		p := w.problem(rng)
		u := w.source(rng)
		w.get(ctx, "query", fmt.Sprintf("/v1/query?problem=%s&source=%d", p, u), []string{"query/" + p}, w.cacheOutcome("query"))

	case OpQueryFull:
		p := w.problem(rng)
		u := w.source(rng)
		w.get(ctx, "query_full", fmt.Sprintf("/v1/query?problem=%s&source=%d&full=1", p, u), nil, nil)

	case OpQueryStale:
		w.staleQuery(ctx, rng, 0)

	case OpQueryAt:
		p := w.problem(rng)
		u := w.source(rng)
		v := w.c.version.Load()
		if back := uint64(rng.Intn(4)); back < v {
			v -= back
		}
		w.get(ctx, "queryat", fmt.Sprintf("/v1/queryat?problem=%s&source=%d&version=%d", p, u, v), nil, nil)

	case OpQueryMany:
		p := w.problem(rng)
		k := 4 + rng.Intn(5)
		sources := make([]uint32, k)
		for i := range sources {
			sources[i] = uint32(w.source(rng))
		}
		w.post(ctx, "querymany", "/v1/querymany", map[string]any{"problem": p, "sources": sources}, nil)

	case OpBatch:
		edges := w.genEdges(rng, 16+rng.Intn(49))
		w.post(ctx, "batch", "/v1/batch", map[string]any{"edges": edges}, w.noteBatch)
		for _, e := range edges {
			if len(w.recent) < recentRing {
				w.recent = append(w.recent, e)
			} else {
				w.recent[rng.Intn(recentRing)] = e
			}
		}

	case OpDelete:
		var edges []edgeJSON
		if len(w.recent) > 0 {
			k := 1 + rng.Intn(min(16, len(w.recent)))
			edges = make([]edgeJSON, k)
			for i := range edges {
				edges[i] = w.recent[rng.Intn(len(w.recent))]
			}
		} else {
			edges = w.genEdges(rng, 4) // mostly no-ops; still a valid delete batch
		}
		w.post(ctx, "delete", "/v1/delete", map[string]any{"edges": edges}, w.noteBatch)

	case OpSubscribe:
		w.subscribe(ctx, rng)

	case OpPoll:
		p := w.problem(rng)
		u := w.source(rng)
		w.get(ctx, "poll", fmt.Sprintf("/v1/subscribe?problem=%s&src=%d&mode=poll&wait=1", p, u), nil, nil)

	case OpStats:
		w.get(ctx, "stats", "/v1/stats", nil, func(resp *http.Response) {
			var st statsProbe
			if json.NewDecoder(resp.Body).Decode(&st) == nil && st.Vertices > 0 {
				w.c.vertices.Store(int64(st.Vertices))
			}
		})

	case OpCancel:
		// Abandon the query mid-flight: a client-side budget far below any
		// realistic evaluation time. The interesting outcomes are both
		// visible: a 499/504 if the server answered the abandonment, a
		// recorded abort if the transport gave up first.
		budget := 200*time.Microsecond + time.Duration(rng.Intn(int(2*time.Millisecond)))
		cctx, cancel := context.WithTimeout(ctx, budget)
		p := w.problem(rng)
		u := w.source(rng)
		req, err := http.NewRequestWithContext(cctx, http.MethodGet, w.c.base+fmt.Sprintf("/v1/query?problem=%s&source=%d&full=1", p, u), nil)
		if err != nil {
			cancel()
			w.c.rec.RecordTransportErr("cancel", 0)
			return
		}
		start := time.Now()
		resp, err := w.c.hc.Do(req)
		elapsed := time.Since(start)
		if err != nil {
			cancel()
			if !runCtxDone(ctx) {
				w.c.rec.RecordClientAbort("cancel", elapsed)
			}
			return
		}
		w.c.rec.RecordHTTP("cancel", resp.StatusCode, resp.Header.Get("Retry-After") != "", elapsed)
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		cancel()
	}
}

// staleQuery issues the cache-tolerant read: stale=ok plus a
// min_version floor a few batches back, the freshness contract a
// version-aware client uses to resume after a disconnect.
func (w *worker) staleQuery(ctx context.Context, rng *xrand.RNG, minVersion uint64) {
	p := w.problem(rng)
	u := w.source(rng)
	if minVersion == 0 {
		if v := w.c.version.Load(); v > 2 {
			minVersion = v - 2
		}
	}
	w.get(ctx, "query_stale",
		fmt.Sprintf("/v1/query?problem=%s&source=%d&stale=ok&min_version=%d", p, u, minVersion),
		nil, w.cacheOutcome("query_stale"))
}

// cacheOutcome returns the inspect that records under key whether the
// result cache answered the response.
func (w *worker) cacheOutcome(key string) func(*http.Response) {
	return func(resp *http.Response) {
		w.c.rec.RecordCache(key, resp.Header.Get("X-Tripoline-Cache") == "hit")
	}
}

func (w *worker) genEdges(rng *xrand.RNG, k int) []edgeJSON {
	n := int(w.c.vertices.Load())
	if n < 2 {
		n = 2
	}
	edges := make([]edgeJSON, k)
	for i := range edges {
		edges[i] = edgeJSON{
			Src: uint32(rng.Intn(n)),
			Dst: uint32(rng.Intn(n)),
			W:   uint32(1 + rng.Intn(8)),
		}
	}
	return edges
}

// noteBatch folds a write response's version into the high-water mark
// (writes also carry it in the body, not the header).
func (w *worker) noteBatch(resp *http.Response) {
	var rep struct {
		Version uint64 `json:"version"`
	}
	if json.NewDecoder(resp.Body).Decode(&rep) == nil {
		for {
			cur := w.c.version.Load()
			if rep.Version <= cur || w.c.version.CompareAndSwap(cur, rep.Version) {
				return
			}
		}
	}
}

// subscribe opens one SSE stream, consumes a few frames (or the drain
// goodbye), disconnects, and resumes via the stale=ok/min_version query
// — the full lifecycle of a real subscriber. The recorded latency is
// time-to-accept: connection plus the gated baseline evaluation.
func (w *worker) subscribe(ctx context.Context, rng *xrand.RNG) {
	sctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	p := w.problem(rng)
	u := w.source(rng)
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, w.c.base+fmt.Sprintf("/v1/subscribe?problem=%s&src=%d", p, u), nil)
	if err != nil {
		w.c.rec.RecordTransportErr("subscribe", 0)
		return
	}
	start := time.Now()
	resp, err := w.c.hc.Do(req)
	elapsed := time.Since(start)
	if err != nil {
		if !runCtxDone(ctx) {
			w.c.rec.RecordTransportErr("subscribe", elapsed)
		}
		return
	}
	defer resp.Body.Close()
	w.c.rec.RecordHTTP("subscribe", resp.StatusCode, resp.Header.Get("Retry-After") != "", elapsed)
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return
	}
	out, _ := consumeSSE(resp.Body, w.c.subFrames)
	if out.LastVersion > 0 {
		// Reconnect-with-min_version: the answer must be at least as fresh
		// as the last frame the stream delivered.
		w.staleQuery(ctx, rng, out.LastVersion)
	}
}
