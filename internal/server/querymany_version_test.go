package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// postQueryMany issues /v1/querymany and returns the response header and
// decoded body — the version-contract tests need both.
func postQueryMany(t *testing.T, url string) (http.Header, struct {
	Version uint64   `json:"version"`
	Width   int      `json:"width"`
	Values  []uint64 `json:"values"`
}) {
	t.Helper()
	var out struct {
		Version uint64   `json:"version"`
		Width   int      `json:"width"`
		Values  []uint64 `json:"values"`
	}
	b, err := json.Marshal(map[string]any{"problem": "SSSP", "sources": []uint32{3, 9}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/querymany", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.Header, out
}

// queryVersion reads the single-query endpoint's version header — the
// reference every other query-family endpoint must agree with.
func queryVersion(t *testing.T, url string) uint64 {
	t.Helper()
	resp, err := http.Get(url + "/v1/query?problem=SSSP&source=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	v, err := strconv.ParseUint(resp.Header.Get("X-Tripoline-Version"), 10, 64)
	if err != nil {
		t.Fatalf("bad X-Tripoline-Version %q: %v", resp.Header.Get("X-Tripoline-Version"), err)
	}
	return v
}

// assertQueryManyVersion is the repro for the loadgen-found contract
// hole: /v1/querymany used to drop MultiResult.Version entirely — no
// body field, no X-Tripoline-Version header — so subscribers could not
// resume from a batched read the way they can from every other query
// endpoint. Both carriers must now be present and agree with /v1/query.
func assertQueryManyVersion(t *testing.T, ts *httptest.Server) {
	t.Helper()
	want := queryVersion(t, ts.URL)
	hdr, out := postQueryMany(t, ts.URL)
	hv, err := strconv.ParseUint(hdr.Get("X-Tripoline-Version"), 10, 64)
	if err != nil {
		t.Fatalf("querymany X-Tripoline-Version %q: %v", hdr.Get("X-Tripoline-Version"), err)
	}
	if hv != want {
		t.Fatalf("querymany header version %d, /v1/query reports %d", hv, want)
	}
	if out.Version != want {
		t.Fatalf("querymany body version %d, /v1/query reports %d", out.Version, want)
	}
}

func TestQueryManyVersionContract(t *testing.T) {
	ts, _ := newTestServer(t, "SSSP")
	assertQueryManyVersion(t, ts)
}

func TestQueryManyVersionContractSharded(t *testing.T) {
	ts, _ := newShardedTestServer(t, "SSSP")
	assertQueryManyVersion(t, ts)
}

// TestQueryManyVersionAdvances pins that the reported version tracks
// writes: after a batch the querymany version must move with it.
func TestQueryManyVersionAdvances(t *testing.T) {
	ts, _ := newTestServer(t, "SSSP")
	_, before := postQueryMany(t, ts.URL)
	var br struct {
		Version uint64 `json:"version"`
	}
	body := map[string]any{"edges": []map[string]any{{"src": 1, "dst": 2, "w": 3}}}
	if code := postJSON(t, ts.URL+"/v1/batch", body, &br); code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	_, after := postQueryMany(t, ts.URL)
	if after.Version <= before.Version {
		t.Fatalf("version did not advance across a batch: %d -> %d", before.Version, after.Version)
	}
	if after.Version != br.Version {
		t.Fatalf("querymany version %d, batch reported %d", after.Version, br.Version)
	}
}
