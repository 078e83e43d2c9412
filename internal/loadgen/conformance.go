package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"time"

	"tripoline/internal/server"
	"tripoline/internal/xrand"
)

// The conformance suite replays one deterministic op trace against two
// self-hosted servers — an unsharded core (S=1) and a sharded router
// (S>1) — and compares what the wire actually said: status codes, error
// envelope codes, the X-Tripoline-Version header, and a hash of the
// answer values. The serving layer promises that sharding is invisible
// to clients (same API, same versions, bit-identical answers for the
// integer-semiring problems); this suite is that promise, executable,
// with no exceptions — a subscription's snapshot frame is compared like
// any other answer.

// conformanceProblems are the integer-semiring problems: answers must be
// bit-identical across shard counts. PageRank is only 1e-6-equal, so it
// stays out of the hashing trace.
var conformanceProblems = []string{"SSSP", "SSWP", "BFS"}

// ConformanceConfig shapes one conformance run. The zero value is
// usable: 1024 vertices, 4 shards, 160 steps, seed 1.
type ConformanceConfig struct {
	Vertices int
	Edges    int
	Shards   int // the S>1 side; default 4
	Steps    int
	Seed     uint64
}

func (c ConformanceConfig) withDefaults() ConformanceConfig {
	if c.Vertices <= 0 {
		c.Vertices = 1024
	}
	if c.Edges <= 0 {
		c.Edges = 6 * c.Vertices
	}
	if c.Shards <= 1 {
		c.Shards = 4
	}
	if c.Steps <= 0 {
		c.Steps = 160
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Observation is what one endpoint said, reduced to the comparable
// contract surface. Seconds/timings are deliberately absent.
type Observation struct {
	Status     int
	ErrCode    string // envelope code when Status >= 400
	Version    string // X-Tripoline-Version header, "" when absent
	ValuesHash uint64 // FNV-1a over the answer values, 0 when not hashed
	RetryAfter bool
}

func (o Observation) String() string {
	s := strconv.Itoa(o.Status)
	if o.ErrCode != "" {
		s += "/" + o.ErrCode
	}
	if o.Version != "" {
		s += " v" + o.Version
	}
	if o.ValuesHash != 0 {
		s += fmt.Sprintf(" h%016x", o.ValuesHash)
	}
	return s
}

// Divergence is one contract mismatch between the two servers.
type Divergence struct {
	Step    int    `json:"step"`
	Op      string `json:"op"`
	Desc    string `json:"desc"`
	Field   string `json:"field"`
	Core    string `json:"core"`    // S=1 observation
	Sharded string `json:"sharded"` // S>1 observation
}

func (d Divergence) String() string {
	return fmt.Sprintf("step %d %s (%s): %s — core=%s sharded=%s", d.Step, d.Op, d.Desc, d.Field, d.Core, d.Sharded)
}

// ConformanceReport summarizes one run.
type ConformanceReport struct {
	Steps       int          `json:"steps"`
	Shards      int          `json:"shards"`
	Seed        uint64       `json:"seed"`
	Divergences []Divergence `json:"divergences,omitempty"`
}

// traceStep is one deterministic op: the same request is issued to both
// servers, and flags say which contract fields must agree.
type traceStep struct {
	op     string
	method string
	path   string
	body   []byte
	desc   string
	// compareVersion/compareValues gate the strong checks; status and
	// error code are always compared.
	compareVersion bool
	compareValues  bool
}

// RunConformance builds the two servers, replays the trace, and reports
// every divergence. The error return is for harness trouble (a server
// failed to build, the transport died) — contract mismatches are data,
// not errors.
func RunConformance(ctx context.Context, cfg ConformanceConfig) (*ConformanceReport, error) {
	cfg = cfg.withDefaults()
	base := SelfHostConfig{
		Vertices:        cfg.Vertices,
		Edges:           cfg.Edges,
		Problems:        conformanceProblems,
		K:               8,
		Seed:            cfg.Seed,
		HistoryCapacity: 8,
		CacheEntries:    64,
	}
	coreCfg, shardCfg := base, base
	coreCfg.Shards = 1
	shardCfg.Shards = cfg.Shards

	a, err := SelfHost(coreCfg)
	if err != nil {
		return nil, fmt.Errorf("loadgen: conformance: core server: %w", err)
	}
	defer a.Close()
	b, err := SelfHost(shardCfg)
	if err != nil {
		return nil, fmt.Errorf("loadgen: conformance: sharded server: %w", err)
	}
	defer b.Close()

	rep := &ConformanceReport{Steps: cfg.Steps, Shards: cfg.Shards, Seed: cfg.Seed}
	hc := &http.Client{Timeout: 30 * time.Second}
	tr := &tracer{rng: xrand.New(cfg.Seed), vertices: cfg.Vertices, problems: base.Problems}

	for i := 0; i < cfg.Steps; i++ {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		step := tr.next()
		oa, err := observe(ctx, hc, a.URL, step)
		if err != nil {
			return rep, fmt.Errorf("loadgen: conformance: step %d against core: %w", i, err)
		}
		ob, err := observe(ctx, hc, b.URL, step)
		if err != nil {
			return rep, fmt.Errorf("loadgen: conformance: step %d against sharded: %w", i, err)
		}
		rep.Divergences = append(rep.Divergences, compare(i, step, oa, ob)...)
	}
	return rep, nil
}

// tracer generates the deterministic op trace. Writes mutate its model
// of the current version so queryat steps always name a live snapshot.
type tracer struct {
	rng      *xrand.RNG
	vertices int
	problems []string
	writes   uint64 // applied write batches (tracks server version growth)
}

func (t *tracer) problem() string { return t.problems[t.rng.Intn(len(t.problems))] }
func (t *tracer) source() int     { return t.rng.Intn(t.vertices) }

func (t *tracer) next() traceStep {
	// Weighted cycle: reads dominate, every family appears.
	switch roll := t.rng.Intn(100); {
	case roll < 25: // plain query
		p, u := t.problem(), t.source()
		return traceStep{
			op: "query", method: http.MethodGet,
			path:           fmt.Sprintf("/v1/query?problem=%s&source=%d", p, u),
			desc:           fmt.Sprintf("%s src=%d", p, u),
			compareVersion: true, compareValues: true,
		}
	case roll < 35: // full materialization
		p, u := t.problem(), t.source()
		return traceStep{
			op: "query_full", method: http.MethodGet,
			path:           fmt.Sprintf("/v1/query?problem=%s&source=%d&full=1", p, u),
			desc:           fmt.Sprintf("%s src=%d full", p, u),
			compareVersion: true, compareValues: true,
		}
	case roll < 45: // batched multi-source
		p := t.problem()
		k := 2 + t.rng.Intn(4)
		sources := make([]uint32, k)
		for i := range sources {
			sources[i] = uint32(t.source())
		}
		body, _ := json.Marshal(map[string]any{"problem": p, "sources": sources})
		return traceStep{
			op: "querymany", method: http.MethodPost, path: "/v1/querymany", body: body,
			desc:           fmt.Sprintf("%s k=%d", p, k),
			compareVersion: true, compareValues: true,
		}
	case roll < 53: // historical read: recent versions stay inside the window
		p, u := t.problem(), t.source()
		back := uint64(t.rng.Intn(3))
		v := uint64(1)
		if t.writes+1 > back {
			v = t.writes + 1 - back
		}
		return traceStep{
			op: "queryat", method: http.MethodGet,
			path:           fmt.Sprintf("/v1/queryat?problem=%s&source=%d&version=%d", p, u, v),
			desc:           fmt.Sprintf("%s src=%d v=%d", p, u, v),
			compareVersion: true, compareValues: true,
		}
	case roll < 60: // stale read: status contract only (cache freshness may differ)
		p, u := t.problem(), t.source()
		return traceStep{
			op: "query_stale", method: http.MethodGet,
			path: fmt.Sprintf("/v1/query?problem=%s&source=%d&stale=ok", p, u),
			desc: fmt.Sprintf("%s src=%d stale", p, u),
		}
	case roll < 75: // write batch — applied identically to both servers
		k := 8 + t.rng.Intn(25)
		edges := make([]map[string]any, k)
		for i := range edges {
			edges[i] = map[string]any{
				"src": uint32(t.source()), "dst": uint32(t.source()),
				"w": uint32(1 + t.rng.Intn(8)),
			}
		}
		body, _ := json.Marshal(map[string]any{"edges": edges})
		t.writes++
		return traceStep{
			op: "batch", method: http.MethodPost, path: "/v1/batch", body: body,
			desc:           fmt.Sprintf("%d edges", k),
			compareVersion: true,
		}
	case roll < 80: // delete — same edges may or may not exist; both sides agree
		k := 1 + t.rng.Intn(4)
		edges := make([]map[string]any, k)
		for i := range edges {
			edges[i] = map[string]any{"src": uint32(t.source()), "dst": uint32(t.source())}
		}
		body, _ := json.Marshal(map[string]any{"edges": edges})
		t.writes++
		return traceStep{
			op: "delete", method: http.MethodPost, path: "/v1/delete", body: body,
			desc:           fmt.Sprintf("%d edges", k),
			compareVersion: true,
		}
	case roll < 86: // stats: shape and version must agree
		return traceStep{
			op: "stats", method: http.MethodGet, path: "/v1/stats", desc: "stats",
			compareValues: true,
		}
	case roll < 90: // malformed: missing problem
		return traceStep{
			op: "bad_request", method: http.MethodGet,
			path: fmt.Sprintf("/v1/query?source=%d", t.source()),
			desc: "missing problem",
		}
	case roll < 94: // unknown problem
		return traceStep{
			op: "not_found", method: http.MethodGet,
			path: fmt.Sprintf("/v1/query?problem=NOPE&source=%d", t.source()),
			desc: "unknown problem",
		}
	case roll < 97: // long-poll subscribe: no write lands in its wait, so 204
		p, u := t.problem(), t.source()
		return traceStep{
			op: "poll", method: http.MethodGet,
			path: fmt.Sprintf("/v1/subscribe?problem=%s&src=%d&mode=poll&wait=1", p, u),
			desc: fmt.Sprintf("%s src=%d poll", p, u),
		}
	default: // SSE subscribe: the snapshot frame is the answer
		p, u := t.problem(), t.source()
		return traceStep{
			op: "subscribe", method: http.MethodGet,
			path:           fmt.Sprintf("/v1/subscribe?problem=%s&src=%d", p, u),
			desc:           fmt.Sprintf("%s src=%d sse", p, u),
			compareVersion: true, compareValues: true,
		}
	}
}

// observe issues one step and reduces the response to its contract
// surface. SSE responses are read up to the first frame then abandoned.
func observe(ctx context.Context, hc *http.Client, base string, step traceStep) (Observation, error) {
	var rd io.Reader
	if step.body != nil {
		rd = bytes.NewReader(step.body)
	}
	req, err := http.NewRequestWithContext(ctx, step.method, base+step.path, rd)
	if err != nil {
		return Observation{}, err
	}
	if step.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return Observation{}, err
	}
	defer resp.Body.Close()

	obs := Observation{
		Status:     resp.StatusCode,
		Version:    resp.Header.Get("X-Tripoline-Version"),
		RetryAfter: resp.Header.Get("Retry-After") != "",
	}
	switch {
	case resp.StatusCode >= 400:
		var env struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&env); err == nil {
			obs.ErrCode = env.Error.Code
		}
	case step.op == "subscribe" && resp.StatusCode == http.StatusOK:
		// A stream never ends on its own: hash its first frame and hang up.
		return obs, hashSnapshot(resp.Body, &obs)
	case resp.StatusCode == http.StatusOK:
		if err := hashBody(resp.Body, step, &obs); err != nil {
			return obs, err
		}
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return obs, nil
}

// hashBody decodes the comparable fields of a 200 body — values, width,
// version, stats shape — and folds them into the observation. Timing
// fields never participate.
func hashBody(r io.Reader, step traceStep, obs *Observation) error {
	var body struct {
		Values   []uint64 `json:"values"`
		Value    *uint64  `json:"value"`
		Width    int      `json:"width"`
		Version  *uint64  `json:"version"`
		Vertices int      `json:"vertices"`
		Edges    int64    `json:"edges"`
	}
	if err := json.NewDecoder(r).Decode(&body); err != nil {
		return fmt.Errorf("decoding %s body: %w", step.op, err)
	}
	h := fnv.New64a()
	if step.compareValues {
		for _, v := range body.Values {
			putWord(h, v)
		}
		if body.Value != nil {
			putWord(h, *body.Value)
		}
		putWord(h, uint64(body.Width))
		putWord(h, uint64(body.Vertices))
		putWord(h, uint64(body.Edges))
	}
	if body.Version != nil {
		putWord(h, *body.Version)
		// Body version doubles as the header when the endpoint reports it
		// only in JSON (/v1/stats, /v1/batch).
		if obs.Version == "" {
			obs.Version = strconv.FormatUint(*body.Version, 10)
		}
	}
	obs.ValuesHash = h.Sum64()
	return nil
}

// hashSnapshot reads a subscription stream up to its first frame — the
// snapshot — and folds the frame's kind, version and values into the
// observation; the version doubles as the header, which a stream has not.
func hashSnapshot(r io.Reader, obs *Observation) error {
	var frame struct {
		Kind    string   `json:"kind"`
		Version uint64   `json:"version"`
		Values  []uint64 `json:"values"`
	}
	err := readSSE(r, func(ev SSEEvent) bool {
		return json.Unmarshal(ev.Data, &frame) != nil // skip what is not a frame
	})
	if err != nil {
		return fmt.Errorf("reading subscribe stream: %w", err)
	}
	h := fnv.New64a()
	h.Write([]byte(frame.Kind))
	for _, v := range frame.Values {
		putWord(h, v)
	}
	putWord(h, frame.Version)
	obs.Version = strconv.FormatUint(frame.Version, 10)
	obs.ValuesHash = h.Sum64()
	return nil
}

// putWord folds v into h as 8 little-endian bytes.
func putWord(h hash.Hash64, v uint64) {
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(v >> (8 * i))
	}
	h.Write(buf[:])
}

// compare reduces two observations of one step to divergences.
func compare(i int, step traceStep, a, b Observation) []Divergence {
	mk := func(field, av, bv string) Divergence {
		return Divergence{Step: i, Op: step.op, Desc: step.desc, Field: field, Core: av, Sharded: bv}
	}
	var out []Divergence
	if a.Status != b.Status {
		out = append(out, mk("status", a.String(), b.String()))
		return out // downstream fields are meaningless across differing statuses
	}
	if a.Status >= 400 && a.ErrCode != b.ErrCode {
		out = append(out, mk("error_code", a.ErrCode, b.ErrCode))
	}
	if a.Status == 429 && (a.RetryAfter != b.RetryAfter || !a.RetryAfter) {
		out = append(out, mk("retry_after", fmt.Sprint(a.RetryAfter), fmt.Sprint(b.RetryAfter)))
	}
	if a.Status == http.StatusOK {
		if step.compareVersion && a.Version != b.Version {
			out = append(out, mk("version", a.Version, b.Version))
		}
		if step.compareValues && a.ValuesHash != b.ValuesHash {
			out = append(out, mk("values", a.String(), b.String()))
		}
	}
	return out
}

// admissionEndpoints is every gated endpoint the 429 probe exercises.
// Paths take fmt verbs for problem/source where needed.
type admissionEndpoint struct {
	name   string
	method string
	path   string
	body   string
}

var admissionEndpoints = []admissionEndpoint{
	{"query", http.MethodGet, "/v1/query?problem=SSSP&source=1&full=1", ""},
	{"queryat", http.MethodGet, "/v1/queryat?problem=SSSP&source=1&version=1", ""},
	{"querymany", http.MethodPost, "/v1/querymany", `{"problem":"SSSP","sources":[1,2]}`},
	{"batch", http.MethodPost, "/v1/batch", `{"edges":[{"src":1,"dst":2,"w":3}]}`},
	{"delete", http.MethodPost, "/v1/delete", `{"edges":[{"src":1,"dst":2}]}`},
	{"subscribe", http.MethodGet, "/v1/subscribe?problem=SSSP&src=1", ""},
	{"poll", http.MethodGet, "/v1/subscribe?problem=SSSP&src=1&mode=poll&wait=1", ""},
}

// ProbeAdmission saturates a MaxInFlight=1/QueueDepth=0 server by
// pinning one admitted request inside the handler (via the server's
// admitted hook), then hits every gated endpoint and asserts the
// saturation contract: status 429, error code "overloaded"-family
// envelope, and a Retry-After header — on every endpoint, sharded
// included. Returns the violations (empty means the contract holds).
//
// Not safe to run concurrently with other servers in-process: the
// admitted hook is package-global.
func ProbeAdmission(ctx context.Context, shards int) ([]string, error) {
	t, err := SelfHost(SelfHostConfig{
		Vertices: 256, Edges: 1024, Shards: shards,
		Problems: []string{"SSSP"}, K: 4,
		MaxInFlight: 1, QueueDepth: 0,
		HistoryCapacity: 4,
		// No result cache: a cache hit legitimately bypasses the gate and
		// would turn the probe's deterministic 429 into a 200.
	})
	if err != nil {
		return nil, err
	}
	defer t.Close()

	admitted := make(chan struct{})
	release := make(chan struct{})
	restore := server.SetTestHookAdmitted(func(string) {
		admitted <- struct{}{}
		<-release
	})

	blockerDone := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.URL+"/v1/query?problem=SSSP&source=0&full=1", nil)
		if err != nil {
			blockerDone <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			blockerDone <- err
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		blockerDone <- nil
	}()

	select {
	case <-admitted:
	case err := <-blockerDone:
		restore()
		return nil, fmt.Errorf("loadgen: admission probe blocker died before admission: %v", err)
	case <-ctx.Done():
		restore()
		return nil, ctx.Err()
	}

	var violations []string
	hc := &http.Client{Timeout: 10 * time.Second}
	for _, ep := range admissionEndpoints {
		var rd io.Reader
		if ep.body != "" {
			rd = bytes.NewReader([]byte(ep.body))
		}
		req, err := http.NewRequestWithContext(ctx, ep.method, t.URL+ep.path, rd)
		if err != nil {
			violations = append(violations, fmt.Sprintf("%s: building request: %v", ep.name, err))
			continue
		}
		if ep.body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := hc.Do(req)
		if err != nil {
			violations = append(violations, fmt.Sprintf("%s: transport: %v", ep.name, err))
			continue
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			violations = append(violations, fmt.Sprintf("%s: status %d, want 429", ep.name, resp.StatusCode))
		}
		if resp.Header.Get("Retry-After") == "" {
			violations = append(violations, fmt.Sprintf("%s: 429 without Retry-After", ep.name))
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	close(release)
	restore()
	if err := <-blockerDone; err != nil {
		return violations, fmt.Errorf("loadgen: admission probe blocker: %v", err)
	}
	return violations, nil
}
