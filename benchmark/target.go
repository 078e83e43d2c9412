package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"tripoline/internal/core"
	"tripoline/internal/metrics"
	"tripoline/internal/server"
	"tripoline/internal/shard"
	"tripoline/internal/streamgraph"
)

// standingK is the number of standing queries per problem (the paper's
// and the server's default).
const standingK = core.DefaultK

// servingShards is the shard count of every serving stack.
const servingShards = 4

// answer is one query's client-side outcome. The clock stops when the
// result is materialised — the QueryResult for a library call, the
// fully read body for an HTTP call; digesting it for the correctness
// check happens afterwards, off the clock.
type answer struct {
	version uint64
	values  []uint64 // library: the result's arrays (not copied)
	counts  []uint64
	body    []byte // http: response body, valid until the next request
	cached  bool   // http: served by the result cache
	// backend is the evaluation time the backend itself reports
	// (QueryResult.Elapsed; the response's "seconds" over HTTP).
	backend time.Duration
}

// fold is FNV-1a's xor-multiply step taken a 64-bit word at a time.
func fold(h, v uint64) uint64 { return (h ^ v) * 1099511628211 }

const foldBasis = 14695981039346656037

// digest fingerprints the answer's per-vertex values so a Δ answer and
// its paired from-scratch answer can be compared bit for bit without
// keeping either alive (over HTTP the values are parsed out of the body).
func (a answer) digest() (uint64, error) {
	h := uint64(foldBasis)
	if a.body == nil {
		for _, v := range a.values {
			h = fold(h, v)
		}
		for _, v := range a.counts {
			h = fold(h, v)
		}
		return h, nil
	}
	vals, ok := jsonField(a.body, "values")
	if !ok || len(vals) < 2 || vals[0] != '[' {
		return 0, fmt.Errorf("response has no values array")
	}
	n, inNum, v := 0, false, uint64(0)
	for _, c := range vals[1:] {
		switch {
		case c >= '0' && c <= '9':
			v, inNum = v*10+uint64(c-'0'), true
		case inNum:
			h, v, inNum = fold(h, v), 0, false
			n++
		}
		if c == ']' {
			break
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("response values array is empty")
	}
	return h, nil
}

// jsonField returns the raw bytes following `"name":` in a flat JSON
// object, up to the end of the body — enough for the handful of scalar
// and array fields the benchmark reads without decoding a 400 KB answer
// through encoding/json on every request.
func jsonField(body []byte, name string) ([]byte, bool) {
	key := []byte(`"` + name + `":`)
	i := bytes.Index(body, key)
	if i < 0 {
		return nil, false
	}
	return body[i+len(key):], true
}

// jsonNumber parses the scalar `"name":<number>` out of a flat object.
func jsonNumber(body []byte, name string) (float64, bool) {
	rest, ok := jsonField(body, name)
	if !ok {
		return 0, false
	}
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(rest[:end]), 64)
	return f, err == nil
}

// mutation is one applied batch's outcome: the version it published, the
// apply time the backend itself reports (StandingElapsed; the response's
// "standing_seconds" over HTTP) and, from a library call, the full report.
type mutation struct {
	version uint64
	backend time.Duration
	report  core.BatchReport
}

// target is the system under test as the closed-loop client sees it.
// query and mutate time the op themselves so each can stop its clock at
// the right point.
type target interface {
	query(o op) (answer, time.Duration, error)
	mutate(o op) (mutation, time.Duration, error)
	// drain empties the client's subscription channels without
	// blocking and returns the number of frames taken.
	drain() int
	close()
}

// ---------------------------------------------------------------------
// library target: core.System called directly.

type coreTarget struct {
	g    *streamgraph.Graph
	sys  *core.System
	subs []*core.Subscription
}

// newCoreTarget is the timed set-up of a library workload: load the
// preloaded edges, construct the system, Enable every problem (K=16
// standing evaluations each).
func newCoreTarget(problems []string, sc *script) (*coreTarget, error) {
	g := streamgraph.New(sc.n, true)
	g.InsertEdges(sc.initial)
	sys := core.NewSystem(g, standingK)
	for _, p := range problems {
		if err := sys.Enable(p); err != nil {
			return nil, err
		}
	}
	return &coreTarget{g: g, sys: sys}, nil
}

// pinFlat pins the flat mirror of the system's current version — the
// view the system's own queries evaluate over — for the layer probes.
func (t *coreTarget) pinFlat() (*streamgraph.Flat, func(), error) {
	f := t.g.Acquire().Flatten()
	if !f.Retain() {
		return nil, nil, fmt.Errorf("mirror of version %d was retired while pinning it", f.Version())
	}
	return f, f.Release, nil
}

func (t *coreTarget) subscribe(ctx context.Context, subs []subscription) error {
	for _, s := range subs {
		sub, err := t.sys.SubscribeCtx(ctx, s.problem, s.source, 0)
		if err != nil {
			return err
		}
		t.subs = append(t.subs, sub)
	}
	t.drain() // the snapshot frames
	return nil
}

func (t *coreTarget) query(o op) (answer, time.Duration, error) {
	ctx := context.Background()
	var (
		res *core.QueryResult
		err error
	)
	start := time.Now()
	if o.kind == opFull {
		res, err = t.sys.QueryFullCtx(ctx, o.problem, o.source)
	} else {
		res, err = t.sys.QueryCtx(ctx, o.problem, o.source)
	}
	d := time.Since(start)
	if err != nil {
		return answer{}, d, err
	}
	return answer{version: res.Version, values: res.Values, counts: res.Counts, backend: res.Elapsed}, d, nil
}

func (t *coreTarget) mutate(o op) (mutation, time.Duration, error) {
	ctx := context.Background()
	var (
		rep core.BatchReport
		err error
	)
	start := time.Now()
	if o.kind == opDelete {
		rep, err = t.sys.ApplyDeletionsCtx(ctx, o.edges)
	} else {
		rep, err = t.sys.ApplyBatchCtx(ctx, o.edges)
	}
	d := time.Since(start)
	return mutation{version: rep.Version, backend: rep.StandingElapsed, report: rep}, d, err
}

func (t *coreTarget) drain() int {
	n := 0
	for _, sub := range t.subs {
		for more := true; more; {
			select {
			case _, open := <-sub.Frames():
				more = open
				if open {
					n++
				}
			default:
				more = false
			}
		}
	}
	return n
}

func (t *coreTarget) close() {
	for _, sub := range t.subs {
		t.sys.Unsubscribe(sub)
	}
	t.subs = nil
}

// ---------------------------------------------------------------------
// HTTP target: internal/server over a shard.Router, on a loopback
// listener, one keep-alive connection.

type httpTarget struct {
	router *shard.Router
	reg    *metrics.Registry
	ts     *httptest.Server
	hc     *http.Client
	body   bytes.Buffer // reused across requests
	req    bytes.Buffer
}

// newHTTPTarget is the timed set-up of the serving workload, mirroring
// cmd/tripoline-server's construction and defaults (30 s query and
// 2 min write deadlines, unbounded admission, default-capacity result
// cache).
func newHTTPTarget(problems []string, sc *script) (*httpTarget, error) {
	r := shard.New(sc.n, true, servingShards, standingK)
	r.ApplyBatch(sc.initial)
	for _, p := range problems {
		if err := r.Enable(p); err != nil {
			return nil, err
		}
	}
	r.EnableResultCache(core.DefaultCacheEntries)
	reg := metrics.NewRegistry()
	srv := server.NewSharded(r, server.WithMetrics(reg),
		server.WithQueryTimeout(30*time.Second), server.WithWriteTimeout(2*time.Minute))
	ts := httptest.NewServer(srv)
	hc := &http.Client{Transport: &http.Transport{
		MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
	}}
	return &httpTarget{router: r, reg: reg, ts: ts, hc: hc}, nil
}

// counter reads one of the server registry's counters (the server and
// router instruments are registered there under their Prometheus names).
func (t *httpTarget) counter(name string) float64 {
	return float64(t.reg.Counter(name, "").Value())
}

// do runs one request, reads the whole body into the reused buffer and
// returns the elapsed time from call to last byte.
func (t *httpTarget) do(method, path string, payload []byte) (*http.Response, time.Duration, error) {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequest(method, t.ts.URL+path, rd)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	resp, err := t.hc.Do(req)
	if err != nil {
		return nil, time.Since(start), err
	}
	t.body.Reset()
	_, err = t.body.ReadFrom(resp.Body)
	d := time.Since(start)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(t.body.Bytes()))
	}
	return resp, d, err
}

func (t *httpTarget) query(o op) (answer, time.Duration, error) {
	path := "/v1/query?problem=" + o.problem + "&source=" + strconv.FormatUint(uint64(o.source), 10)
	if o.kind == opFull {
		path += "&full=1"
	}
	resp, d, err := t.do(http.MethodGet, path, nil)
	if err != nil {
		return answer{}, d, err
	}
	version, err := strconv.ParseUint(resp.Header.Get("X-Tripoline-Version"), 10, 64)
	if err != nil {
		return answer{}, d, fmt.Errorf("GET %s: bad X-Tripoline-Version: %w", path, err)
	}
	secs, _ := jsonNumber(t.body.Bytes(), "seconds")
	return answer{
		version: version,
		body:    t.body.Bytes(),
		cached:  resp.Header.Get("X-Tripoline-Cache") == "hit",
		backend: time.Duration(secs * float64(time.Second)),
	}, d, nil
}

func (t *httpTarget) mutate(o op) (mutation, time.Duration, error) {
	// The request body is encoded before the clock starts: it is the
	// feeder's cost, not the system's.
	t.req.Reset()
	t.req.WriteString(`{"edges":[`)
	var num [20]byte
	for i, e := range o.edges {
		if i > 0 {
			t.req.WriteByte(',')
		}
		t.req.WriteString(`{"src":`)
		t.req.Write(strconv.AppendUint(num[:0], uint64(e.Src), 10))
		t.req.WriteString(`,"dst":`)
		t.req.Write(strconv.AppendUint(num[:0], uint64(e.Dst), 10))
		t.req.WriteString(`,"w":`)
		t.req.Write(strconv.AppendUint(num[:0], uint64(e.W), 10))
		t.req.WriteByte('}')
	}
	t.req.WriteString(`]}`)
	path := "/v1/batch"
	if o.kind == opDelete {
		path = "/v1/delete"
	}
	_, d, err := t.do(http.MethodPost, path, t.req.Bytes())
	if err != nil {
		return mutation{}, d, err
	}
	version, okV := jsonNumber(t.body.Bytes(), "version")
	secs, okS := jsonNumber(t.body.Bytes(), "standing_seconds")
	if !okV || !okS {
		return mutation{}, d, fmt.Errorf("POST %s: response lacks version/standing_seconds", path)
	}
	return mutation{version: uint64(version), backend: time.Duration(secs * float64(time.Second))}, d, nil
}

func (t *httpTarget) drain() int { return 0 }

func (t *httpTarget) close() {
	t.hc.CloseIdleConnections()
	t.ts.Close()
}
