package server

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"tripoline/internal/core"
	"tripoline/internal/graph"
)

// GET /v1/subscribe?problem=P&src=u — the push half of the serving
// layer. The server registers a subscription with the system, streams
// the initial snapshot frame and then one delta frame per applied batch
// as Server-Sent Events, and tears the subscription down when the client
// disconnects or the server drains.
//
// Admission: computing the baseline answer is a real evaluation, so it
// passes through the admission gate like any query; the slot is released
// as soon as the baseline is ready — the long-lived streaming phase
// costs no slot, because frames are produced by the writer's fused
// refresh and the stream merely copies them out.
//
// Drain: open streams are counted in the server's inflight group, so
// Drain waits for them — and they end promptly because every stream
// selects on the server's drain channel, emitting a final `goodbye`
// event before closing. Without that, a drained server would hang on
// streams that have no natural end.
//
// ?mode=poll selects the long-poll fallback for clients that cannot
// consume SSE: the request discards the snapshot (the client can get it
// from /v1/query) and blocks until the first *change* to the answer,
// returning that delta frame as a plain JSON body — or 204 after ?wait
// seconds (default 30) without one.

// defaultPollWait bounds a long-poll request that sees no change.
const defaultPollWait = 30 * time.Second

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	if !s.enter() {
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	defer s.inflight.Done()
	q := r.URL.Query()
	problem := q.Get("problem")
	srcStr := q.Get("src")
	if srcStr == "" {
		srcStr = q.Get("source")
	}
	if problem == "" {
		writeErr(w, http.StatusBadRequest, "missing ?problem")
		return
	}
	src, err := strconv.ParseUint(srcStr, 10, 32)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad ?src=%q", srcStr)
		return
	}

	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)

	// Gate the baseline evaluation only.
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
	}
	setupCtx := r.Context()
	if s.queryTimeout > 0 {
		var cancel context.CancelFunc
		setupCtx, cancel = context.WithTimeout(setupCtx, s.queryTimeout)
		defer cancel()
	}
	sub, err := s.sys.SubscribeCtx(setupCtx, problem, graph.VertexID(src), s.subBuffer)
	if s.gate != nil {
		s.gate.release()
	}
	if err != nil {
		s.met.errors.Inc()
		writeErr(w, statusFor(err), "%v", err)
		return
	}
	defer s.sys.Unsubscribe(sub)
	s.met.subscribers.Add(1)
	defer s.met.subscribers.Add(-1)

	flusher, canFlush := w.(http.Flusher)
	if q.Get("mode") == "poll" || !canFlush {
		s.servePoll(w, r, sub)
		return
	}
	s.serveSSE(w, r, flusher, sub)
}

// serveSSE streams frames until the client disconnects, the server
// drains, or the subscription closes.
func (s *Server) serveSSE(w http.ResponseWriter, r *http.Request, flusher http.Flusher, sub *core.Subscription) {
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	for {
		select {
		case f, ok := <-sub.Frames():
			if !ok {
				return
			}
			if writeEvent(w, &f) != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		case <-s.drainCh:
			// Tell the client this is a shutdown, not a failure, so it
			// reconnects elsewhere instead of retrying here.
			_, _ = io.WriteString(w, goodbyeEvent)
			flusher.Flush()
			return
		}
	}
}

// servePoll is the long-poll fallback: skip the snapshot frame, block
// until the answer changes (the first delta frame), and return it as a
// plain JSON body. 204 when ?wait seconds pass without a change.
func (s *Server) servePoll(w http.ResponseWriter, r *http.Request, sub *core.Subscription) {
	wait := defaultPollWait
	if ws := r.URL.Query().Get("wait"); ws != "" {
		if sec, err := strconv.ParseUint(ws, 10, 16); err == nil && sec > 0 {
			wait = time.Duration(sec) * time.Second
		}
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		select {
		case f, ok := <-sub.Frames():
			if !ok {
				w.WriteHeader(http.StatusNoContent)
				return
			}
			if f.Kind == "snapshot" {
				continue
			}
			w.Header().Set("X-Tripoline-Version", strconv.FormatUint(f.Version, 10))
			writeBody(w, func(b []byte) []byte { return appendFrame(b, &f) })
			return
		case <-timer.C:
			w.WriteHeader(http.StatusNoContent)
			return
		case <-r.Context().Done():
			return
		case <-s.drainCh:
			writeErr(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
	}
}
