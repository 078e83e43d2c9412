package server_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tripoline/internal/core"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/metrics"
	"tripoline/internal/server"
	"tripoline/internal/streamgraph"
)

func newLifecycleServer(t *testing.T, opts ...server.Option) (*httptest.Server, *server.Server) {
	t.Helper()
	g := streamgraph.New(100, false)
	g.InsertEdges(gen.Uniform(100, 900, 8, 201))
	sys := core.NewSystem(g, 4)
	if err := sys.Enable("SSSP"); err != nil {
		t.Fatal(err)
	}
	srv := server.New(sys, opts...)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv
}

// TestAdmissionGateSaturation holds one request in flight on a server
// with maxInFlight=1 and queue depth 0, then asserts a second request is
// refused 429 without waiting.
func TestAdmissionGateSaturation(t *testing.T) {
	ts, _ := newLifecycleServer(t, server.WithMaxInFlight(1, 0))

	// The hook holds only the first admitted request, the in-flight one.
	// A probe below admitted before the drain flag is set returns at once
	// (200), and the loop asks again until it sees 503.
	hold := make(chan struct{})
	admitted := make(chan struct{}, 1)
	var held atomic.Bool
	restore := server.SetTestHookAdmitted(func(string) {
		if held.CompareAndSwap(false, true) {
			admitted <- struct{}{}
			<-hold
		}
	})
	defer restore()

	done := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/query?problem=SSSP&source=1")
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	<-admitted // first request now occupies the only slot

	restore() // overflow request must not block on the hook if admitted
	resp, err := http.Get(ts.URL + "/v1/query?problem=SSSP&source=2")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request: status %d body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After")
	}

	close(hold)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// With the slot free the same request succeeds.
	resp, err = http.Get(ts.URL + "/v1/query?problem=SSSP&source=2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-saturation request: status %d", resp.StatusCode)
	}
}

// TestAdmissionQueueWaits verifies that a queue slot (depth 1) parks the
// second request until the first releases, rather than rejecting it.
func TestAdmissionQueueWaits(t *testing.T) {
	ts, _ := newLifecycleServer(t, server.WithMaxInFlight(1, 1))

	hold := make(chan struct{})
	admitted := make(chan struct{}, 2)
	restore := server.SetTestHookAdmitted(func(string) {
		admitted <- struct{}{}
		<-hold
	})
	defer restore()

	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/query?problem=SSSP&source=1")
			if err != nil {
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
		if i == 0 {
			<-admitted // ensure request 0 holds the slot before 1 queues
		}
	}
	// Request 1 is queued; releasing the hook lets both finish. The
	// hooked hold applies to request 1 too, so drain both admissions.
	close(hold)
	<-admitted
	wg.Wait()
	if codes[0] != http.StatusOK || codes[1] != http.StatusOK {
		t.Fatalf("codes %v, want both 200", codes)
	}
}

// TestQueryDeadline504 runs with an absurdly short server-side query
// timeout against a long path graph (diameter ≈ n, so SSSP needs ~n
// supersteps and the deadline reliably fires mid-convergence) and
// expects 504 Gateway Timeout via engine cancellation.
func TestQueryDeadline504(t *testing.T) {
	if testing.Short() {
		t.Skip("large chain graph in -short mode")
	}
	const n = 150_000
	chain := make([]graph.Edge, n-1)
	for i := range chain {
		chain[i] = graph.Edge{Src: uint32(i), Dst: uint32(i + 1), W: 1}
	}
	g := streamgraph.New(n, false)
	g.InsertEdges(chain)
	sys := core.NewSystem(g, 2)
	if err := sys.Enable("SSSP"); err != nil {
		t.Fatal(err)
	}
	srv := server.New(sys, server.WithQueryTimeout(time.Millisecond))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// full=1 bypasses the Δ warm start, guaranteeing a from-scratch run
	// long enough for the 1ms deadline to fire.
	start := time.Now()
	resp, err := http.Get(ts.URL + "/v1/query?problem=SSSP&source=0&full=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d body %s, want 504", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("timed-out query took %v end to end", elapsed)
	}
}

// TestMetricsEndpoint drives a scripted workload and asserts the
// counters and histogram exposed at /v1/metrics (and mirrored into
// /v1/stats) match it.
func TestMetricsEndpoint(t *testing.T) {
	reg := metrics.NewRegistry()
	ts, _ := newLifecycleServer(t, server.WithMetrics(reg))

	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/v1/query?problem=SSSP&source=5")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/v1/query?problem=SSSP&source=5&full=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/v1/query?problem=Nope&source=5")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown problem: status %d", resp.StatusCode)
	}
	var out map[string]any
	if code := postJSON(t, ts.URL+"/v1/batch",
		map[string]any{"edges": []map[string]uint32{{"src": 1, "dst": 99, "w": 3}}}, &out); code != 200 {
		t.Fatalf("batch: status %d (%v)", code, out)
	}

	if got := reg.Snapshot()["tripoline_queries_total"]; got != int64(4) {
		t.Fatalf("queries_total = %v, want 4", got)
	}
	if got := reg.Snapshot()["tripoline_queries_full_total"]; got != int64(1) {
		t.Fatalf("queries_full_total = %v, want 1", got)
	}
	if got := reg.Snapshot()["tripoline_errors_total"]; got != int64(1) {
		t.Fatalf("errors_total = %v, want 1", got)
	}
	if got := reg.Snapshot()["tripoline_batches_total"]; got != int64(1) {
		t.Fatalf("batches_total = %v, want 1", got)
	}
	if got := reg.Snapshot()["tripoline_batch_edges_total"]; got != int64(1) {
		t.Fatalf("batch_edges_total = %v, want 1", got)
	}

	resp, err = http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"# TYPE tripoline_queries_total counter",
		"tripoline_queries_total 4",
		"# TYPE tripoline_query_seconds histogram",
		`tripoline_query_seconds_bucket{le="+Inf"} 5`,
		"tripoline_query_seconds_count 5",
		"# TYPE tripoline_inflight gauge",
		"# TYPE tripoline_cache_bytes gauge",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/v1/metrics missing %q in:\n%s", want, text)
		}
	}

	// The stats endpoint mirrors the same registry as JSON.
	var stats struct {
		Metrics map[string]any `json:"metrics"`
	}
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != 200 {
		t.Fatalf("stats: status %d", code)
	}
	if got, ok := stats.Metrics["tripoline_queries_total"].(float64); !ok || got != 4 {
		t.Fatalf("stats metrics queries_total = %v", stats.Metrics["tripoline_queries_total"])
	}
}

// TestDrain verifies graceful shutdown: draining refuses new requests
// with 503 but lets in-flight ones finish.
func TestDrain(t *testing.T) {
	ts, srv := newLifecycleServer(t)

	// The hook holds only the first admitted request, the in-flight one.
	// A probe below admitted before the drain flag is set returns at once
	// (200), and the loop asks again until it sees 503.
	hold := make(chan struct{})
	admitted := make(chan struct{}, 1)
	var held atomic.Bool
	restore := server.SetTestHookAdmitted(func(string) {
		if held.CompareAndSwap(false, true) {
			admitted <- struct{}{}
			<-hold
		}
	})
	defer restore()

	done := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/query?problem=SSSP&source=1")
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	<-admitted

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drainErr <- srv.Drain(ctx)
	}()
	// Draining refuses new work. Drain was just signaled; wait for the
	// flag (it is set synchronously before Drain blocks, but give the
	// goroutine a moment to run).
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/query?problem=SSSP&source=2")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("request during drain: status %d, want 503", resp.StatusCode)
		}
		time.Sleep(time.Millisecond)
	}

	restore() // let the held request's hook no-op for any retries
	close(hold)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d, want 200", code)
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("Drain: %v", err)
	}
}
