// Package server exposes a Tripoline system over HTTP with a small JSON
// API, turning the library into a deployable query service: update
// batches stream in through POSTs, and user queries — the whole point of
// the paper, queries whose source vertex is not known in advance —
// arrive as GETs and are answered Δ-based.
//
// Endpoints:
//
//	GET  /v1/stats                       graph + system + metrics summary
//	GET  /v1/metrics                     Prometheus text exposition
//	GET  /v1/query?problem=SSWP&source=5 one Δ-based user query
//	GET  /v1/query?...&full=1            the non-incremental baseline
//	GET  /v1/query?...&stale=ok          accept a cached past-version answer
//	GET  /v1/queryat?version=3&...       query a retained past snapshot
//	GET  /v1/subscribe?problem=P&src=5   push stream of result deltas (SSE)
//	POST /v1/querymany {"problem":"SSSP","sources":[3,9]}
//	POST /v1/batch   {"edges":[{"src":1,"dst":2,"w":3}, ...]}
//	POST /v1/delete  {"edges":[...]}
//
// Writes (batch/delete) are serialized through the system's exclusive
// update path; queries run concurrently against immutable snapshots.
//
// The server owns the query lifecycle: every request gets a
// context.Context carrying the endpoint's deadline, which the engine
// checks at superstep boundaries, so a slow query is abandoned promptly
// instead of burning cores to completion for a client that stopped
// waiting. An admission gate bounds the number of evaluations in flight
// (a semaphore with a bounded wait queue; overflow is answered 429), and
// Drain provides graceful shutdown: stop admitting, finish what is
// running (open subscription streams get a goodbye event and close).
//
// When the system's Δ-result cache is enabled, /v1/query and /v1/queryat
// consult it *before* the admission gate: a hit costs no evaluation
// slot. Every error is a JSON envelope
// {"error":{"code":"...","message":"..."}} whose code is one of
// not_found, bad_request, canceled, deadline, draining, overloaded or
// internal, mapped from the core package's sentinel errors.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"tripoline/internal/core"
	"tripoline/internal/graph"
	"tripoline/internal/metrics"
)

// StatusClientClosedRequest is the non-standard (nginx-convention) code
// reported when a query was abandoned because the client went away.
const StatusClientClosedRequest = 499

// Server is the HTTP front end over one Tripoline system, at any store
// count.
type Server struct {
	sys *core.System

	mux *http.ServeMux

	queryTimeout time.Duration // per-query deadline; 0 = none
	writeTimeout time.Duration // per-batch/delete deadline; 0 = none
	gate         *gate         // nil = unbounded admission
	met          *serverMetrics

	// draining flips once and permanently: new requests are refused with
	// 503 while in-flight ones run out under the inflight WaitGroup.
	// drainCh closes at the same flip so long-lived subscription streams
	// (which are counted in inflight) notice and shut down promptly —
	// without it Drain would wait on streams that have no reason to end.
	drainMu  sync.Mutex
	draining bool
	drainCh  chan struct{}
	inflight sync.WaitGroup

	subBuffer int // per-subscription frame buffer (0 = core default)
}

// Option configures a Server (the same functional-option pattern as the
// tripoline package root).
type Option func(*Server)

// WithQueryTimeout caps the wall time of one query evaluation
// (/v1/query, /v1/queryat, /v1/querymany). The engine observes the
// deadline at superstep boundaries; an expired query returns 504 (or 499
// if the client disconnected first). Zero disables the cap.
func WithQueryTimeout(d time.Duration) Option {
	return func(s *Server) { s.queryTimeout = d }
}

// WithWriteTimeout caps the wall time of one update batch (/v1/batch,
// /v1/delete). The deadline gates admission only — an admitted batch
// always completes so standing state never desyncs from its snapshot.
// Zero disables the cap.
func WithWriteTimeout(d time.Duration) Option {
	return func(s *Server) { s.writeTimeout = d }
}

// WithMaxInFlight bounds the number of requests evaluating concurrently
// to n; up to queue further requests wait for a slot (respecting their
// deadlines), and anything beyond that is refused immediately with 429.
// n <= 0 leaves admission unbounded.
func WithMaxInFlight(n, queue int) Option {
	return func(s *Server) {
		if n <= 0 {
			s.gate = nil
			return
		}
		if queue < 0 {
			queue = 0
		}
		s.gate = &gate{sem: make(chan struct{}, n), maxQueue: int64(queue)}
	}
}

// WithMetrics installs a shared metrics registry (so one process can
// aggregate several servers, or tests can inspect counts). Without this
// option the server creates its own registry.
func WithMetrics(reg *metrics.Registry) Option {
	return func(s *Server) { s.met = newServerMetrics(reg) }
}

// WithSubscriptionBuffer sets the per-subscription frame-channel
// capacity (how many undelivered frames a slow client may pin before
// refreshes skip it). n <= 0 keeps the core default.
func WithSubscriptionBuffer(n int) Option {
	return func(s *Server) { s.subBuffer = n }
}

// New serves a system. The caller keeps ownership: batches may also be
// applied directly as long as they are not concurrent with ServeHTTP
// writes (use the server's endpoints once serving).
func New(sys *core.System, opts ...Option) *Server {
	s := &Server{sys: sys, mux: http.NewServeMux(), drainCh: make(chan struct{})}
	for _, o := range opts {
		o(s)
	}
	if s.met == nil {
		s.met = newServerMetrics(metrics.NewRegistry())
	}
	// The system's own instruments (mirror maintenance) surface in
	// /v1/stats and /v1/metrics.
	s.sys.RegisterMetrics(s.met.reg)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/query", s.cached(s.tryCachedQuery, s.lifecycle("query", s.queryTimeout, s.handleQuery)))
	s.mux.HandleFunc("GET /v1/queryat", s.cached(s.tryCachedQueryAt, s.lifecycle("query", s.queryTimeout, s.handleQueryAt)))
	s.mux.HandleFunc("GET /v1/subscribe", s.handleSubscribe)
	s.mux.HandleFunc("POST /v1/querymany", s.lifecycle("query", s.queryTimeout, s.handleQueryMany))
	s.mux.HandleFunc("POST /v1/batch", s.lifecycle("write", s.writeTimeout, s.handleBatch))
	s.mux.HandleFunc("POST /v1/delete", s.lifecycle("write", s.writeTimeout, s.handleDelete))
	return s
}

// NewSharded is New, under the name the benchmark builds its serving
// stack by.
func NewSharded(sys *core.System, opts ...Option) *Server { return New(sys, opts...) }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Drain stops admitting requests (new ones get 503) and blocks until all
// in-flight requests finish or ctx expires, returning ctx.Err() in the
// latter case. It is idempotent; a drained server stays drained.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drainCh) // wake open subscription streams
	}
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// isDraining reports whether Drain has been called.
func (s *Server) isDraining() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.draining
}

// enter admits a request into the inflight group, or refuses it once
// Drain has begun. Testing the flag and counting the request under
// drainMu orders every Add before Drain's Wait: a request refused here
// never runs, and one admitted here is waited for.
func (s *Server) enter() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// gate is the bounded-concurrency admission control: sem caps the
// evaluations running, queued/maxQueue cap the ones waiting for a slot.
type gate struct {
	sem      chan struct{}
	queued   int64
	maxQueue int64
	mu       sync.Mutex
}

var errSaturated = errors.New("server: admission queue full")

// acquire claims an execution slot, waiting (bounded by the queue depth
// and the request's context) when all slots are busy. It returns
// errSaturated when the wait queue is full.
func (g *gate) acquire(ctx context.Context) error {
	select {
	case g.sem <- struct{}{}:
		return nil
	default:
	}
	g.mu.Lock()
	if g.queued >= g.maxQueue {
		g.mu.Unlock()
		return errSaturated
	}
	g.queued++
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		g.queued--
		g.mu.Unlock()
	}()
	select {
	case g.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (g *gate) release() { <-g.sem }

// testHookAdmitted, when non-nil, runs inside every admitted request
// just before its handler. Tests use it to hold requests in flight
// deterministically; nil in production.
var testHookAdmitted func(kind string)

// lifecycle wraps a handler with the full request lifecycle: admission
// gate, drain check and in-flight accounting, per-endpoint deadline, and
// latency/outcome metrics.
func (s *Server) lifecycle(kind string, timeout time.Duration, h func(ctx context.Context, w http.ResponseWriter, r *http.Request) int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.gate != nil {
			if err := s.gate.acquire(r.Context()); err != nil {
				if errors.Is(err, errSaturated) {
					s.met.rejected.Inc()
					w.Header().Set("Retry-After", "1")
					writeErr(w, http.StatusTooManyRequests, "server saturated: %v", err)
				} else {
					writeErr(w, StatusClientClosedRequest, "client gone while queued: %v", err)
				}
				return
			}
			defer s.gate.release()
		}
		// After the gate, so a request still queued when Drain begins is
		// refused rather than run after Drain returned.
		if !s.enter() {
			writeErr(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
		defer s.inflight.Done()
		s.met.inflight.Add(1)
		defer s.met.inflight.Add(-1)
		if testHookAdmitted != nil {
			testHookAdmitted(kind)
		}

		ctx := r.Context()
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		start := time.Now()
		code := h(ctx, w, r)
		elapsed := time.Since(start).Seconds()
		switch kind {
		case "query":
			s.met.queryLatency.Observe(elapsed)
		case "write":
			s.met.writeLatency.Observe(elapsed)
		}
		if code == StatusClientClosedRequest || code == http.StatusGatewayTimeout {
			s.met.canceled.Inc()
		} else if code >= 400 {
			s.met.errors.Inc()
		}
	}
}

// statusFor maps a system error onto an HTTP status code using the core
// package's sentinel errors.
func statusFor(err error) int {
	switch {
	case errors.Is(err, core.ErrSourceOutOfRange):
		return http.StatusBadRequest
	case errors.Is(err, core.ErrUnknownProblem), errors.Is(err, core.ErrNoSuchVersion):
		return http.StatusNotFound
	case errors.Is(err, core.ErrCanceled):
		if errors.Is(err, context.DeadlineExceeded) {
			return http.StatusGatewayTimeout
		}
		return StatusClientClosedRequest
	default:
		return http.StatusBadRequest
	}
}

// edgeJSON is the wire form of one edge.
type edgeJSON struct {
	Src uint32 `json:"src"`
	Dst uint32 `json:"dst"`
	W   uint32 `json:"w"`
}

type batchRequest struct {
	Edges []edgeJSON `json:"edges"`
}

type batchResponse struct {
	Applied         int     `json:"applied"`
	ChangedSources  int     `json:"changed_sources"`
	Version         uint64  `json:"version"`
	StandingSeconds float64 `json:"standing_seconds"`
	// Subscription fan-out of this batch (omitted with no subscribers).
	Subscribers int     `json:"subscribers,omitempty"`
	FramesSent  int     `json:"frames_sent,omitempty"`
	FanoutSecs  float64 `json:"fanout_seconds,omitempty"`
}

type statsResponse struct {
	Vertices int            `json:"vertices"`
	Edges    int64          `json:"edges"`
	Version  uint64         `json:"version"`
	Directed bool           `json:"directed"`
	Problems []string       `json:"problems"`
	Metrics  map[string]any `json:"metrics"`
	// Cache summarizes the Δ-result cache (all zero when disabled);
	// Subscribers is the live subscription count.
	Cache       core.CacheMetrics `json:"cache"`
	Subscribers int               `json:"subscribers"`
}

// errEnvelope is the unified v1 error body: every non-2xx response from
// a /v1/* endpoint carries exactly this shape, with a small closed set
// of machine-readable codes so clients switch on code, never on message
// text or HTTP nuance.
type errEnvelope struct {
	Error errDetail `json:"error"`
}

type errDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errCodeFor maps an HTTP status onto the envelope's code vocabulary.
func errCodeFor(status int) string {
	switch status {
	case http.StatusNotFound:
		return "not_found"
	case http.StatusBadRequest:
		return "bad_request"
	case StatusClientClosedRequest:
		return "canceled"
	case http.StatusGatewayTimeout:
		return "deadline"
	case http.StatusServiceUnavailable:
		return "draining"
	case http.StatusTooManyRequests:
		return "overloaded"
	default:
		return "internal"
	}
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(errEnvelope{Error: errDetail{
		Code:    errCodeFor(code),
		Message: fmt.Sprintf(format, args...),
	}})
	return code
}

func writeJSON(w http.ResponseWriter, v any) int {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
	return http.StatusOK
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, statsResponse{
		Vertices:    s.sys.NumVertices(),
		Edges:       s.sys.NumEdges(),
		Version:     s.sys.Version(),
		Directed:    s.sys.Directed(),
		Problems:    s.sys.Enabled(),
		Metrics:     s.met.reg.Snapshot(),
		Cache:       s.sys.ResultCacheMetrics(),
		Subscribers: s.sys.Subscribers(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.met.reg.WritePrometheus(w)
}

// handleQuery and handleQueryAt run behind cached, which parsed r.Form.
func (s *Server) handleQuery(ctx context.Context, w http.ResponseWriter, r *http.Request) int {
	problem := r.Form.Get("problem")
	if problem == "" {
		return writeErr(w, http.StatusBadRequest, "missing ?problem")
	}
	srcStr := r.Form.Get("source")
	src, err := strconv.ParseUint(srcStr, 10, 32)
	if err != nil {
		return writeErr(w, http.StatusBadRequest, "bad ?source=%q", srcStr)
	}
	var res *core.QueryResult
	if r.Form.Get("full") != "" {
		s.met.queriesFull.Inc()
		res, err = s.sys.QueryFullCtx(ctx, problem, graph.VertexID(src))
	} else {
		s.met.queries.Inc()
		res, err = s.sys.QueryCtx(ctx, problem, graph.VertexID(src))
	}
	if err != nil {
		return writeErr(w, statusFor(err), "%v", err)
	}
	if res.Incremental {
		s.met.queriesIncremental.Inc()
	}
	s.met.observeEngine(res.Stats)
	return writeQueryResult(w, res)
}

// writeQueryResult writes the standard query body plus the
// X-Tripoline-Version header (always matching the JSON version field, so
// version-aware clients need not parse the body).
func writeQueryResult(w http.ResponseWriter, res *core.QueryResult) int {
	w.Header().Set("X-Tripoline-Version", strconv.FormatUint(res.Version, 10))
	return writeBody(w, func(b []byte) []byte { return appendQuery(b, res) })
}

// cached wraps a query endpoint with its Δ-result-cache fast path: on a
// hit the request bypasses the admission gate entirely — the whole point
// of caching at user scale is that a hit costs an O(answer) copy, not an
// evaluation slot. Draining still refuses the request (a drained server
// serves nothing), and a miss falls through to the gated handler.
//
// The query string is parsed once, here: both the fast path and the
// handler read r.Form.
func (s *Server) cached(try func(w http.ResponseWriter, r *http.Request) bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// A malformed pair is skipped, as r.URL.Query() skips it; the
		// handlers report the fields they then miss.
		_ = r.ParseForm()
		if !s.isDraining() && try(w, r) {
			return
		}
		h(w, r)
	}
}

// tryCachedQuery serves /v1/query from the cache when the request's
// freshness policy allows it: by default only an entry at the current
// version hits; ?stale=ok accepts any retained version at or above
// ?min_version. full=1 always bypasses the cache. Cached responses set
// X-Tripoline-Cache: hit and X-Tripoline-Stale-Batches (the number of
// graph-changing batches applied since the answer's version).
func (s *Server) tryCachedQuery(w http.ResponseWriter, r *http.Request) bool {
	q := r.Form
	if q.Get("full") != "" {
		return false
	}
	problem := q.Get("problem")
	src, err := strconv.ParseUint(q.Get("source"), 10, 32)
	if problem == "" || err != nil {
		return false // let the real handler produce the 400
	}
	staleOK := q.Get("stale") == "ok"
	var minVersion uint64
	if mv := q.Get("min_version"); mv != "" {
		minVersion, err = strconv.ParseUint(mv, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad ?min_version=%q", mv)
			return true
		}
	}
	res, stale, ok := s.sys.CachedQuery(problem, graph.VertexID(src), minVersion, staleOK)
	if !ok {
		return false
	}
	s.met.queries.Inc()
	s.met.cacheHits.Inc()
	if stale > 0 {
		s.met.cacheStaleServed.Inc()
	}
	w.Header().Set("X-Tripoline-Cache", "hit")
	w.Header().Set("X-Tripoline-Stale-Batches", strconv.FormatUint(stale, 10))
	writeQueryResult(w, res)
	return true
}

// tryCachedQueryAt serves /v1/queryat from the cache when an entry's
// version matches the requested one exactly — an answer at version v is
// exact at v forever, so this skips both the gate and the historical
// re-evaluation.
func (s *Server) tryCachedQueryAt(w http.ResponseWriter, r *http.Request) bool {
	q := r.Form
	problem := q.Get("problem")
	src, errSrc := strconv.ParseUint(q.Get("source"), 10, 32)
	version, errVer := strconv.ParseUint(q.Get("version"), 10, 64)
	if problem == "" || errSrc != nil || errVer != nil {
		return false
	}
	res, ok := s.sys.CachedQueryAt(problem, graph.VertexID(src), version)
	if !ok {
		return false
	}
	s.met.queries.Inc()
	s.met.cacheHits.Inc()
	w.Header().Set("X-Tripoline-Cache", "hit")
	w.Header().Set("X-Tripoline-Stale-Batches", "0")
	writeQueryResult(w, res)
	return true
}

// handleQueryAt answers against a retained historical snapshot; the
// system must have history enabled (core.System.EnableHistory).
func (s *Server) handleQueryAt(ctx context.Context, w http.ResponseWriter, r *http.Request) int {
	problem := r.Form.Get("problem")
	srcStr := r.Form.Get("source")
	verStr := r.Form.Get("version")
	src, err := strconv.ParseUint(srcStr, 10, 32)
	if err != nil {
		return writeErr(w, http.StatusBadRequest, "bad ?source=%q", srcStr)
	}
	version, err := strconv.ParseUint(verStr, 10, 64)
	if err != nil {
		return writeErr(w, http.StatusBadRequest, "bad ?version=%q", verStr)
	}
	s.met.queries.Inc()
	res, err := s.sys.QueryAtCtx(ctx, version, problem, graph.VertexID(src))
	if err != nil {
		return writeErr(w, statusFor(err), "%v", err)
	}
	s.met.observeEngine(res.Stats)
	return writeQueryResult(w, res)
}

type queryManyRequest struct {
	Problem string   `json:"problem"`
	Sources []uint32 `json:"sources"`
}

func (s *Server) handleQueryMany(ctx context.Context, w http.ResponseWriter, r *http.Request) int {
	var req queryManyRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return writeErr(w, http.StatusBadRequest, "bad JSON: %v", err)
	}
	sources := make([]graph.VertexID, len(req.Sources))
	for i, u := range req.Sources {
		sources[i] = graph.VertexID(u)
	}
	s.met.queries.Add(int64(len(sources)))
	res, err := s.sys.QueryManyCtx(ctx, req.Problem, sources)
	if err != nil {
		return writeErr(w, statusFor(err), "%v", err)
	}
	s.met.queriesIncremental.Add(int64(len(sources)))
	s.met.observeEngine(res.Stats)
	// Same version contract as /v1/query: the snapshot the whole batch
	// evaluated against, in both the header and the body.
	w.Header().Set("X-Tripoline-Version", strconv.FormatUint(res.Version, 10))
	return writeBody(w, func(b []byte) []byte { return appendQueryMany(b, req.Sources, res) })
}

func (s *Server) decodeEdges(w http.ResponseWriter, r *http.Request) ([]graph.Edge, bool) {
	var req batchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad JSON: %v", err)
		return nil, false
	}
	if len(req.Edges) == 0 {
		writeErr(w, http.StatusBadRequest, "empty batch")
		return nil, false
	}
	edges := make([]graph.Edge, len(req.Edges))
	for i, e := range req.Edges {
		if e.W == 0 {
			e.W = 1
		}
		edges[i] = graph.Edge{Src: e.Src, Dst: e.Dst, W: e.W}
	}
	return edges, true
}

func (s *Server) handleBatch(ctx context.Context, w http.ResponseWriter, r *http.Request) int {
	edges, ok := s.decodeEdges(w, r)
	if !ok {
		return http.StatusBadRequest
	}
	rep, err := s.sys.ApplyBatchCtx(ctx, edges)
	if err != nil {
		return writeErr(w, statusFor(err), "%v", err)
	}
	s.met.batches.Inc()
	s.met.batchEdges.Add(int64(rep.BatchEdges))
	s.met.observeFanout(rep)
	return writeJSON(w, batchResponse{
		Applied:         rep.BatchEdges,
		ChangedSources:  rep.ChangedSources,
		Version:         rep.Version,
		StandingSeconds: rep.StandingElapsed.Seconds(),
		Subscribers:     rep.Subscribers,
		FramesSent:      rep.FramesSent,
		FanoutSecs:      rep.RefreshElapsed.Seconds(),
	})
}

func (s *Server) handleDelete(ctx context.Context, w http.ResponseWriter, r *http.Request) int {
	edges, ok := s.decodeEdges(w, r)
	if !ok {
		return http.StatusBadRequest
	}
	rep, err := s.sys.ApplyDeletionsCtx(ctx, edges)
	if err != nil {
		return writeErr(w, statusFor(err), "%v", err)
	}
	s.met.deletes.Inc()
	s.met.batchEdges.Add(int64(rep.BatchEdges))
	s.met.observeFanout(rep)
	return writeJSON(w, batchResponse{
		Applied:         rep.BatchEdges,
		ChangedSources:  rep.ChangedSources,
		Version:         rep.Version,
		StandingSeconds: rep.StandingElapsed.Seconds(),
		Subscribers:     rep.Subscribers,
		FramesSent:      rep.FramesSent,
		FanoutSecs:      rep.RefreshElapsed.Seconds(),
	})
}
