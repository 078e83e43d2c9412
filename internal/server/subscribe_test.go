package server_test

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tripoline/internal/core"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/server"
	"tripoline/internal/streamgraph"
)

// newServingStack builds a system with the Δ-result cache enabled and
// returns the pieces the serving tests need direct access to.
func newServingStack(t *testing.T, problems ...string) (*httptest.Server, *server.Server, *core.System) {
	t.Helper()
	edges := gen.Uniform(100, 900, 8, 201)
	g := streamgraph.New(100, false)
	g.InsertEdges(edges)
	sys := core.NewSystem(g, 4)
	sys.EnableResultCache(64)
	for _, p := range problems {
		if err := sys.Enable(p); err != nil {
			t.Fatal(err)
		}
	}
	srv := server.New(sys)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv, sys
}

// readEvent parses one SSE frame (event name + data payload).
func readEvent(t *testing.T, br *bufio.Reader) (string, []byte) {
	t.Helper()
	var name string
	var data []byte
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading SSE stream: %v", err)
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			if name != "" || data != nil {
				return name, data
			}
			continue
		}
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			name = v
		}
		if v, ok := strings.CutPrefix(line, "data: "); ok {
			data = []byte(v)
		}
	}
}

// TestSubscribeSSE is the subscribe smoke: connect, apply a batch,
// assert a delta frame arrives at the batch's version.
func TestSubscribeSSE(t *testing.T) {
	ts, _, _ := newServingStack(t, "BFS")
	resp, err := http.Get(ts.URL + "/v1/subscribe?problem=BFS&src=7")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("subscribe status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	br := bufio.NewReader(resp.Body)

	name, data := readEvent(t, br)
	var snap core.ResultFrame
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if name != "snapshot" || snap.Kind != "snapshot" || len(snap.Values) == 0 {
		t.Fatalf("first frame = %s %+v", name, snap)
	}

	var rep struct {
		Version     uint64 `json:"version"`
		Subscribers int    `json:"subscribers"`
		FramesSent  int    `json:"frames_sent"`
	}
	postJSON(t, ts.URL+"/v1/batch",
		map[string]any{"edges": []map[string]any{{"src": 7, "dst": 93, "w": 1}}}, &rep)
	if rep.Subscribers != 1 || rep.FramesSent != 1 {
		t.Fatalf("batch fan-out %+v", rep)
	}

	name, data = readEvent(t, br)
	var delta core.ResultFrame
	if err := json.Unmarshal(data, &delta); err != nil {
		t.Fatal(err)
	}
	if name != "delta" || delta.Kind != "delta" {
		t.Fatalf("second frame = %s %+v", name, delta)
	}
	if delta.Version != rep.Version {
		t.Fatalf("delta at version %d, batch published %d", delta.Version, rep.Version)
	}
}

// TestSubscribeLongPoll: mode=poll blocks until the answer changes and
// returns the delta as a plain JSON body.
func TestSubscribeLongPoll(t *testing.T) {
	ts, _, _ := newServingStack(t, "BFS")
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(50 * time.Millisecond)
		var rep map[string]any
		postJSON(t, ts.URL+"/v1/batch",
			map[string]any{"edges": []map[string]any{{"src": 3, "dst": 91, "w": 1}}}, &rep)
	}()
	resp, err := http.Get(ts.URL + "/v1/subscribe?problem=BFS&src=3&mode=poll&wait=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	<-done
	if resp.StatusCode != 200 {
		t.Fatalf("poll status %d", resp.StatusCode)
	}
	var frame core.ResultFrame
	if err := json.NewDecoder(resp.Body).Decode(&frame); err != nil {
		t.Fatal(err)
	}
	if frame.Kind != "delta" {
		t.Fatalf("poll frame kind %q", frame.Kind)
	}
	if resp.Header.Get("X-Tripoline-Version") == "" {
		t.Fatal("poll response missing version header")
	}
}

// TestCachedQueryServing: second identical query is served from the
// cache with the hit header; stale policy and min_version behave as
// documented.
func TestCachedQueryServing(t *testing.T) {
	ts, _, _ := newServingStack(t, "BFS")
	get := func(path string) (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp, out
	}

	// Populate, then hit.
	r1, out1 := get("/v1/query?problem=BFS&source=9")
	if r1.Header.Get("X-Tripoline-Cache") != "" {
		t.Fatal("first query claimed a cache hit")
	}
	if r1.Header.Get("X-Tripoline-Version") == "" {
		t.Fatal("query response missing version header")
	}
	r2, out2 := get("/v1/query?problem=BFS&source=9")
	if r2.Header.Get("X-Tripoline-Cache") != "hit" {
		t.Fatal("second query not served from cache")
	}
	if r2.Header.Get("X-Tripoline-Stale-Batches") != "0" {
		t.Fatalf("fresh hit stale batches %q", r2.Header.Get("X-Tripoline-Stale-Batches"))
	}
	if out1["version"] != out2["version"] {
		t.Fatal("cached version differs")
	}

	// A graph-changing batch makes the entry stale.
	var rep struct {
		Version uint64 `json:"version"`
	}
	postJSON(t, ts.URL+"/v1/batch",
		map[string]any{"edges": []map[string]any{{"src": 9, "dst": 55, "w": 1}}}, &rep)

	r3, _ := get("/v1/query?problem=BFS&source=9&stale=ok")
	if r3.Header.Get("X-Tripoline-Cache") != "hit" {
		t.Fatal("stale=ok did not serve the cached answer")
	}
	if r3.Header.Get("X-Tripoline-Stale-Batches") != "1" {
		t.Fatalf("stale batches %q, want 1", r3.Header.Get("X-Tripoline-Stale-Batches"))
	}
	// min_version above the entry forces re-evaluation even with stale=ok.
	r4, out4 := get("/v1/query?problem=BFS&source=9&stale=ok&min_version=" +
		strconv.FormatUint(rep.Version, 10))
	if r4.Header.Get("X-Tripoline-Cache") != "" {
		t.Fatal("min_version ignored by cache path")
	}
	if uint64(out4["version"].(float64)) != rep.Version {
		t.Fatalf("re-evaluated at %v, want %d", out4["version"], rep.Version)
	}
	// The re-evaluation refreshed the entry: strict serving hits again.
	r5, _ := get("/v1/query?problem=BFS&source=9")
	if r5.Header.Get("X-Tripoline-Cache") != "hit" {
		t.Fatal("refreshed entry not served")
	}

	// Cache activity is visible under /v1/stats; its resident bytes (one
	// width-1 answer over 100 vertices) also as the tripoline_cache_bytes
	// gauge.
	var stats struct {
		Cache   core.CacheMetrics `json:"cache"`
		Metrics map[string]any    `json:"metrics"`
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Cache.Hits < 3 || stats.Cache.StaleServed < 1 {
		t.Fatalf("stats cache section %+v", stats.Cache)
	}
	if stats.Cache.Bytes != 8*100 || stats.Cache.BudgetBytes < stats.Cache.Bytes {
		t.Fatalf("stats cache bytes %d budget %d, want 800 within the budget", stats.Cache.Bytes, stats.Cache.BudgetBytes)
	}
	if got, ok := stats.Metrics["tripoline_cache_bytes"].(float64); !ok || got != 8*100 {
		t.Fatalf("stats metrics tripoline_cache_bytes = %v", stats.Metrics["tripoline_cache_bytes"])
	}
}

// TestSubscribeDrainGoodbye: Drain pushes a goodbye event to open
// streams and completes.
func TestSubscribeDrainGoodbye(t *testing.T) {
	ts, srv, _ := newServingStack(t, "BFS")
	resp, err := http.Get(ts.URL + "/v1/subscribe?problem=BFS&src=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	readEvent(t, br) // snapshot

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()
	name, _ := readEvent(t, br)
	if name != "goodbye" {
		t.Fatalf("drain pushed %q, want goodbye", name)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain did not complete: %v", err)
	}
	// New subscriptions are refused after drain.
	resp2, err := http.Get(ts.URL + "/v1/subscribe?problem=BFS&src=2")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain subscribe status %d", resp2.StatusCode)
	}
}

// TestSubscriberChurnDuringDrain exercises concurrent subscribe /
// unsubscribe / batch traffic racing Drain — the -race companion for the
// stream shutdown path.
func TestSubscriberChurnDuringDrain(t *testing.T) {
	ts, srv, sys := newServingStack(t, "BFS")
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// HTTP subscribers connecting, reading one frame, disconnecting.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/v1/subscribe?problem=BFS&src=" + strconv.Itoa(src))
				if err != nil {
					return
				}
				if resp.StatusCode == 200 {
					br := bufio.NewReader(resp.Body)
					_, _ = br.ReadString('\n')
				}
				resp.Body.Close()
				if resp.StatusCode == http.StatusServiceUnavailable {
					return
				}
			}
		}(i + 1)
	}
	// Direct library subscribers churning against the same system.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sub, err := sys.SubscribeCtx(context.Background(), "BFS", graph.VertexID(src), 2)
				if err != nil {
					return
				}
				sys.Unsubscribe(sub)
			}
		}(i + 10)
	}
	// A writer advancing versions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sys.ApplyBatch([]graph.Edge{{Src: uint32(i % 90), Dst: uint32((i + 7) % 90), W: 1}})
		}
	}()

	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := srv.Drain(ctx)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("drain under churn: %v", err)
	}
}
