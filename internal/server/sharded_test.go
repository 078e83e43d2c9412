package server_test

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"tripoline/internal/core"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/server"
	"tripoline/internal/shard"
	"tripoline/internal/streamgraph"
)

// newShardedTestServer serves a 4-shard router plus an identically fed
// unsharded reference system for answer comparison.
func newShardedTestServer(t *testing.T, shards int, problems ...string) (*httptest.Server, *core.System) {
	t.Helper()
	edges := gen.Uniform(100, 900, 8, 201)
	g := streamgraph.New(100, false)
	g.InsertEdges(edges)
	ref := core.NewSystem(g, 4)
	r := shard.New(100, false, shards, 4)
	r.ApplyBatch(edges)
	for _, p := range problems {
		if err := ref.Enable(p); err != nil {
			t.Fatal(err)
		}
		if err := r.Enable(p); err != nil {
			t.Fatal(err)
		}
	}
	r.EnableResultCache(64)
	ts := httptest.NewServer(server.NewSharded(r))
	t.Cleanup(ts.Close)
	return ts, ref
}

func TestShardedStatsEndpoint(t *testing.T) {
	ts, _ := newShardedTestServer(t, 4, "SSSP")
	var stats struct {
		Vertices int            `json:"vertices"`
		Edges    int64          `json:"edges"`
		Version  uint64         `json:"version"`
		Shards   int            `json:"shards"`
		Problems []string       `json:"problems"`
		Metrics  map[string]any `json:"metrics"`
	}
	// One API batch, then stats: shard counters attach at NewSharded, so
	// this batch (fanned to up to 4 sub-batches) is their first sample.
	var rep struct {
		Version uint64 `json:"version"`
	}
	body := map[string]any{"edges": []map[string]any{
		{"src": 1, "dst": 90, "w": 2}, {"src": 2, "dst": 91, "w": 2},
		{"src": 3, "dst": 92, "w": 2}, {"src": 4, "dst": 93, "w": 2},
	}}
	if code := postJSON(t, ts.URL+"/v1/batch", body, &rep); code != 200 {
		t.Fatalf("batch status %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != 200 {
		t.Fatalf("status %d", code)
	}
	if stats.Shards != 4 {
		t.Fatalf("shards=%d, want 4", stats.Shards)
	}
	if stats.Vertices != 100 || stats.Version != 2 {
		t.Fatalf("stats %+v", stats)
	}
	if got, ok := stats.Metrics["tripoline_shard_batches_total"]; !ok || got.(float64) != 1 {
		t.Fatalf("tripoline_shard_batches_total=%v ok=%v", got, ok)
	}
	if got := stats.Metrics["tripoline_shard_subbatches_total"]; got.(float64) < 2 {
		t.Fatalf("tripoline_shard_subbatches_total=%v, want >= 2", got)
	}
	// Mirror metrics aggregate across all shard graphs in the same
	// registry keys the unsharded server uses.
	if _, ok := stats.Metrics["tripoline_mirror_delta_builds_total"]; !ok {
		keys := make([]string, 0, len(stats.Metrics))
		for k := range stats.Metrics {
			keys = append(keys, k)
		}
		t.Fatalf("mirror metrics missing from sharded stats: %v", keys)
	}
}

func TestShardedQueryMatchesUnsharded(t *testing.T) {
	ts, ref := newShardedTestServer(t, 4, "SSSP", "BFS")
	for _, p := range []string{"SSSP", "BFS"} {
		want, err := ref.Query(p, 7)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Values  []uint64 `json:"values"`
			Version uint64   `json:"version"`
		}
		if code := getJSON(t, ts.URL+"/v1/query?problem="+p+"&source=7", &got); code != 200 {
			t.Fatalf("status %d", code)
		}
		if got.Version != want.Version {
			t.Fatalf("%s version %d vs %d", p, got.Version, want.Version)
		}
		for v := range want.Values {
			if got.Values[v] != want.Values[v] {
				t.Fatalf("%s: sharded server diverges from core at vertex %d", p, v)
			}
		}
	}
}

func TestShardedCacheServing(t *testing.T) {
	ts, _ := newShardedTestServer(t, 4, "SSSP")
	// First query populates the router cache; the repeat must be served
	// from it (X-Tripoline-Cache: hit), keyed by the global version.
	for i, wantHit := range []bool{false, true} {
		resp, err := http.Get(ts.URL + "/v1/query?problem=SSSP&source=3")
		if err != nil {
			t.Fatal(err)
		}
		hit := resp.Header.Get("X-Tripoline-Cache") == "hit"
		resp.Body.Close()
		if hit != wantHit {
			t.Fatalf("request %d: cache hit=%v, want %v", i, hit, wantHit)
		}
	}
}

// TestShardedSubscribeSSE: a sharded server streams subscriptions like an
// unsharded one — the snapshot frame and, after a batch, the delta frame
// reconstruct exactly the answer the reference system gives at each
// frame's version.
func TestShardedSubscribeSSE(t *testing.T) {
	ts, ref := newShardedTestServer(t, 4, "SSSP")
	resp, err := http.Get(ts.URL + "/v1/subscribe?problem=SSSP&src=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe status %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	var values []uint64
	// frame applies the next frame to values and holds them to the
	// reference's answer at the frame's version.
	frame := func(kind string) {
		t.Helper()
		name, data := readEvent(t, br)
		var f core.ResultFrame
		if err := json.Unmarshal(data, &f); err != nil {
			t.Fatal(err)
		}
		if name != kind || f.Kind != kind {
			t.Fatalf("frame %s %+v, want %s", name, f, kind)
		}
		if kind == "snapshot" {
			values = f.Values
		}
		for _, d := range f.Changed {
			values[d.Vertex] = d.Value
		}
		want, err := ref.Query("SSSP", 3)
		if err != nil {
			t.Fatal(err)
		}
		if f.Version != want.Version || !slices.Equal(values, want.Values) {
			t.Fatalf("%s frame at v%d diverges from the reference at v%d", kind, f.Version, want.Version)
		}
	}
	frame("snapshot")

	edges := []graph.Edge{{Src: 3, Dst: 94, W: 1}, {Src: 94, Dst: 95, W: 1}}
	var rep struct {
		Subscribers int `json:"subscribers"`
		FramesSent  int `json:"frames_sent"`
	}
	var arcs []map[string]any
	for _, e := range edges {
		arcs = append(arcs, map[string]any{"src": e.Src, "dst": e.Dst, "w": e.W})
	}
	if code := postJSON(t, ts.URL+"/v1/batch", map[string]any{"edges": arcs}, &rep); code != 200 {
		t.Fatalf("batch status %d", code)
	}
	if rep.Subscribers != 1 || rep.FramesSent != 1 {
		t.Fatalf("batch fan-out %+v", rep)
	}
	ref.ApplyBatch(edges)
	frame("delta")
}
