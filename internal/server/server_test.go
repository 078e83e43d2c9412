package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"tripoline/internal/core"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/server"
	"tripoline/internal/streamgraph"
)

func newTestServer(t *testing.T, problems ...string) (*httptest.Server, *streamgraph.Graph) {
	t.Helper()
	edges := gen.Uniform(100, 900, 8, 201)
	g := streamgraph.New(100, false)
	g.InsertEdges(edges)
	sys := core.NewSystem(g, 4)
	for _, p := range problems {
		if err := sys.Enable(p); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(server.New(sys))
	t.Cleanup(ts.Close)
	return ts, g
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode
}

func TestStatsEndpoint(t *testing.T) {
	ts, g := newTestServer(t, "SSSP", "BFS")
	var stats struct {
		Vertices int      `json:"vertices"`
		Edges    int64    `json:"edges"`
		Problems []string `json:"problems"`
	}
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != 200 {
		t.Fatalf("status %d", code)
	}
	if stats.Vertices != 100 || stats.Edges != g.Acquire().NumEdges() {
		t.Fatalf("stats %+v", stats)
	}
	if len(stats.Problems) != 2 {
		t.Fatalf("problems %v", stats.Problems)
	}
}

func TestQueryEndpointMatchesFull(t *testing.T) {
	ts, _ := newTestServer(t, "SSWP")
	var inc, full struct {
		Incremental bool     `json:"incremental"`
		Values      []uint64 `json:"values"`
		Activations int64    `json:"activations"`
	}
	if code := getJSON(t, ts.URL+"/v1/query?problem=SSWP&source=7", &inc); code != 200 {
		t.Fatalf("status %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/query?problem=SSWP&source=7&full=1", &full); code != 200 {
		t.Fatalf("status %d", code)
	}
	if !inc.Incremental || full.Incremental {
		t.Fatal("incremental flags wrong")
	}
	if len(inc.Values) != 100 {
		t.Fatalf("values len %d", len(inc.Values))
	}
	for i := range inc.Values {
		if inc.Values[i] != full.Values[i] {
			t.Fatalf("Δ/full differ at %d", i)
		}
	}
	if inc.Activations >= full.Activations {
		t.Fatalf("Δ activations %d not below full %d", inc.Activations, full.Activations)
	}
}

func TestBatchEndpoint(t *testing.T) {
	ts, g := newTestServer(t, "BFS")
	before := g.Acquire().NumEdges()
	var rep struct {
		Applied        int    `json:"applied"`
		ChangedSources int    `json:"changed_sources"`
		Version        uint64 `json:"version"`
	}
	body := map[string]any{"edges": []map[string]any{
		{"src": 0, "dst": 99, "w": 5},
		{"src": 1, "dst": 98}, // weight defaults to 1
	}}
	if code := postJSON(t, ts.URL+"/v1/batch", body, &rep); code != 200 {
		t.Fatalf("status %d", code)
	}
	if rep.Applied != 2 || rep.Version != 2 {
		t.Fatalf("rep %+v", rep)
	}
	if g.Acquire().NumEdges() <= before {
		t.Fatal("edges not inserted")
	}
	if w, ok := g.Acquire().HasEdge(1, 98); !ok || w != 1 {
		t.Fatal("defaulted weight wrong")
	}
}

func TestDeleteEndpoint(t *testing.T) {
	ts, g := newTestServer(t, "BFS")
	// Insert a known edge, then delete it over the API.
	var rep map[string]any
	postJSON(t, ts.URL+"/v1/batch",
		map[string]any{"edges": []map[string]any{{"src": 3, "dst": 77, "w": 2}}}, &rep)
	if _, ok := g.Acquire().HasEdge(3, 77); !ok {
		t.Fatal("setup edge missing")
	}
	postJSON(t, ts.URL+"/v1/delete",
		map[string]any{"edges": []map[string]any{{"src": 3, "dst": 77, "w": 2}}}, &rep)
	if _, ok := g.Acquire().HasEdge(3, 77); ok {
		t.Fatal("edge survived delete endpoint")
	}
}

func TestErrorResponses(t *testing.T) {
	ts, _ := newTestServer(t, "BFS")
	cases := []struct {
		method, path string
		body         any
		wantCode     int
		wantErrCode  string
	}{
		{"GET", "/v1/query?problem=BFS", nil, 400, "bad_request"},             // no source
		{"GET", "/v1/query?problem=BFS&source=xyz", nil, 400, "bad_request"},  // bad source
		{"GET", "/v1/query?problem=BFS&source=5000", nil, 400, "bad_request"}, // out of range
		{"GET", "/v1/query?problem=SSSP&source=1", nil, 404, "not_found"},     // not enabled
		{"GET", "/v1/query?source=1", nil, 400, "bad_request"},                // no problem
		{"GET", "/v1/queryat?problem=BFS&source=1&version=99", nil, 404, "not_found"},
		{"GET", "/v1/subscribe?problem=BFS", nil, 400, "bad_request"},               // no src
		{"GET", "/v1/subscribe?problem=Nope&src=1", nil, 404, "not_found"},          // not enabled
		{"POST", "/v1/batch", map[string]any{"edges": []any{}}, 400, "bad_request"}, // empty
	}
	for _, c := range cases {
		var out struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		var code int
		if c.method == "GET" {
			code = getJSON(t, ts.URL+c.path, &out)
		} else {
			code = postJSON(t, ts.URL+c.path, c.body, &out)
		}
		if code != c.wantCode {
			t.Fatalf("%s %s: status %d, want %d", c.method, c.path, code, c.wantCode)
		}
		if out.Error.Code != c.wantErrCode {
			t.Fatalf("%s %s: envelope code %q, want %q", c.method, c.path, out.Error.Code, c.wantErrCode)
		}
		if out.Error.Message == "" {
			t.Fatalf("%s %s: envelope has no message", c.method, c.path)
		}
	}
}

func TestQueryAtEndpoint(t *testing.T) {
	// Deterministic path 0-1-2-...-49 so level(49) is known exactly.
	var edges []graph.Edge
	for v := graph.VertexID(0); v < 49; v++ {
		edges = append(edges, graph.Edge{Src: v, Dst: v + 1, W: 1})
	}
	g := streamgraph.New(50, false)
	g.InsertEdges(edges)
	sys := core.NewSystem(g, 2)
	if err := sys.Enable("BFS"); err != nil {
		t.Fatal(err)
	}
	sys.EnableHistory(4)
	oldVersion := g.Acquire().Version()
	ts := httptest.NewServer(server.New(sys))
	t.Cleanup(ts.Close)

	// Mutate through the API so history records the new version.
	var rep map[string]any
	postJSON(t, ts.URL+"/v1/batch",
		map[string]any{"edges": []map[string]any{{"src": 0, "dst": 49, "w": 1}}}, &rep)

	var old, now struct {
		Values []uint64 `json:"values"`
	}
	url := fmt.Sprintf("%s/v1/queryat?problem=BFS&source=0&version=%d", ts.URL, oldVersion)
	if code := getJSON(t, url, &old); code != 200 {
		t.Fatalf("status %d", code)
	}
	getJSON(t, ts.URL+"/v1/query?problem=BFS&source=0", &now)
	if now.Values[49] != 1 {
		t.Fatalf("live level(49)=%d, want 1 via new edge", now.Values[49])
	}
	if old.Values[49] != 49 {
		t.Fatalf("historical level(49)=%d, want 49 along the path", old.Values[49])
	}

	// Error paths.
	var errOut map[string]any
	if code := getJSON(t, ts.URL+"/v1/queryat?problem=BFS&source=0&version=999", &errOut); code != 404 {
		t.Fatalf("unknown version: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/queryat?problem=BFS&source=x&version=1", &errOut); code != 400 {
		t.Fatalf("bad source: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/queryat?problem=BFS&source=0&version=x", &errOut); code != 400 {
		t.Fatalf("bad version: status %d", code)
	}
}

func TestQueryManyEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, "SSSP")
	var out struct {
		Width  int      `json:"width"`
		Values []uint64 `json:"values"`
	}
	body := map[string]any{"problem": "SSSP", "sources": []uint32{3, 9}}
	if code := postJSON(t, ts.URL+"/v1/querymany", body, &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	if out.Width != 2 || len(out.Values) != 200 {
		t.Fatalf("width=%d values=%d", out.Width, len(out.Values))
	}
	// Slot values match single-query endpoint results.
	var single struct {
		Values []uint64 `json:"values"`
	}
	getJSON(t, ts.URL+"/v1/query?problem=SSSP&source=3", &single)
	for v := 0; v < 100; v++ {
		if out.Values[v*2] != single.Values[v] {
			t.Fatalf("batched slot 0 differs at %d", v)
		}
	}
	// Errors surface with precise status codes: bad request shapes are
	// 400, unknown problems are 404 (core.ErrUnknownProblem).
	var errOut map[string]any
	if code := postJSON(t, ts.URL+"/v1/querymany",
		map[string]any{"problem": "SSSP", "sources": []uint32{}}, &errOut); code != 400 {
		t.Fatalf("empty sources: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/querymany",
		map[string]any{"problem": "Nope", "sources": []uint32{1}}, &errOut); code != 404 {
		t.Fatalf("unknown problem: status %d", code)
	}
}

func TestConcurrentClients(t *testing.T) {
	ts, _ := newTestServer(t, "SSSP")
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var out struct {
				Values []uint64 `json:"values"`
			}
			url := fmt.Sprintf("%s/v1/query?problem=SSSP&source=%d", ts.URL, i%50)
			resp, err := http.Get(url)
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- err
				return
			}
			if len(out.Values) != 100 {
				errs <- fmt.Errorf("short values: %d", len(out.Values))
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
