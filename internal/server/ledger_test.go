//go:build tripoline_ledger

package server_test

import (
	"bufio"
	"net/http"
	"testing"

	"tripoline/internal/streamgraph"
)

// TestLedgerServingPath cross-checks the serving layer's pin hygiene:
// an SSE subscriber connects and disconnects mid-stream, queries warm
// the Δ-result cache, batches advance the version, and after a final
// reader-free batch the refcount ledger must account for every pin the
// handlers took. This is the dynamic witness for the long-poll/SSE
// teardown paths refbalance cannot see past net/http.
func TestLedgerServingPath(t *testing.T) {
	if !streamgraph.LedgerEnabled() {
		t.Fatal("test built without -tags tripoline_ledger")
	}
	streamgraph.LedgerReset()

	ts, _, _ := newServingStack(t, "BFS")

	// Warm the cache. Each query pins the current mirror only while it
	// evaluates; the cached entries are copies and hold no pin.
	for _, src := range []string{"3", "7", "11"} {
		resp, err := http.Get(ts.URL + "/v1/query?problem=BFS&source=" + src)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	// Hold a subscription across a batch, then disconnect the client.
	resp, err := http.Get(ts.URL + "/v1/subscribe?problem=BFS&src=7")
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	readEvent(t, br) // snapshot frame

	var rep map[string]any
	postJSON(t, ts.URL+"/v1/batch",
		map[string]any{"edges": []map[string]any{{"src": 7, "dst": 42, "w": 3}}}, &rep)
	readEvent(t, br) // delta frame at the new version
	resp.Body.Close()

	// Final batch with no readers: the parent mirror retires and only
	// owner references remain.
	postJSON(t, ts.URL+"/v1/batch",
		map[string]any{"edges": []map[string]any{{"src": 8, "dst": 43, "w": 2}}}, &rep)

	if leaks := streamgraph.LedgerReport(); len(leaks) != 0 {
		for _, l := range leaks {
			t.Errorf("leaked mirror v%d: %d pin(s) from %v", l.Version, l.Pins, l.Sites)
		}
	}
}
