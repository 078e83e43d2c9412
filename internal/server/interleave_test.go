package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"tripoline/internal/core"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/oracle"
	"tripoline/internal/props"
	"tripoline/internal/server"
	"tripoline/internal/streamgraph"
)

// TestInterleavedWritesAndReads hammers one server with concurrent batch
// writers, query readers, and a Drain, then audits every successful
// query after the fact: with history retaining all versions, each
// response's reported version names the exact graph it was computed
// against, so a from-scratch oracle on that snapshot must reproduce the
// values bit for bit. This is the soundness contract of the standing
// lock (core.System.stMu) made testable — a reader that paired
// post-batch standing bounds with a pre-batch snapshot (or vice versa)
// would converge to values no historical graph can explain. Run it with
// -race for the full effect; it is also what CI does.
func TestInterleavedWritesAndReads(t *testing.T) {
	const (
		n       = 64
		writers = 2
		batches = 12 // per writer
		readers = 4
		queries = 25 // per reader
	)
	g := streamgraph.New(n, false)
	g.InsertEdges(gen.Uniform(n, 3*n, 8, 77))
	sys := core.NewSystem(g, 4)
	if err := sys.Enable("BFS"); err != nil {
		t.Fatal(err)
	}
	// Retain every version so the audit can reconstruct any graph a
	// response claims to be about.
	sys.EnableHistory(1 << 14)
	srv := server.New(sys)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	type obs struct {
		source  graph.VertexID
		version uint64
		values  []uint64
	}
	var (
		mu       sync.Mutex
		results  []obs
		failures []string
	)
	report := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if len(failures) < 8 {
			failures = append(failures, fmt.Sprintf(format, args...))
		}
	}

	// Hold the drain back until every reader is past the halfway mark, so
	// the test always has a healthy population of pre-drain successes and
	// the drain still overlaps live traffic.
	var halfway sync.WaitGroup
	halfway.Add(readers)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				edges := gen.Uniform(n, 6, 8, uint64(1000*w+b))
				body := struct {
					Edges []struct {
						Src uint32 `json:"src"`
						Dst uint32 `json:"dst"`
						W   uint32 `json:"w"`
					} `json:"edges"`
				}{}
				for _, e := range edges {
					body.Edges = append(body.Edges, struct {
						Src uint32 `json:"src"`
						Dst uint32 `json:"dst"`
						W   uint32 `json:"w"`
					}{uint32(e.Src), uint32(e.Dst), uint32(e.W)})
				}
				// 503 after Drain starts is a legal outcome; anything else
				// non-200 is not.
				if code := postJSONCode(t, ts.URL+"/v1/batch", body); code != http.StatusOK && code != http.StatusServiceUnavailable {
					report("writer %d batch %d: status %d", w, b, code)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			passed := false
			for q := 0; q < queries; q++ {
				if !passed && q >= queries/2 {
					halfway.Done()
					passed = true
				}
				src := (r*queries + q*7) % n
				url := fmt.Sprintf("%s/v1/query?problem=BFS&source=%d", ts.URL, src)
				if q%5 == 0 {
					url += "&full=1"
				}
				resp, err := http.Get(url)
				if err != nil {
					report("reader %d: %v", r, err)
					if !passed {
						halfway.Done()
					}
					return
				}
				var qr struct {
					Version uint64   `json:"version"`
					Values  []uint64 `json:"values"`
				}
				code := resp.StatusCode
				err = json.NewDecoder(resp.Body).Decode(&qr)
				resp.Body.Close()
				if code == http.StatusServiceUnavailable {
					continue // drained
				}
				if code != http.StatusOK || err != nil {
					report("reader %d src %d: status %d err %v", r, src, code, err)
					continue
				}
				mu.Lock()
				results = append(results, obs{graph.VertexID(src), qr.Version, qr.Values})
				mu.Unlock()
			}
		}(r)
	}
	// Drain while traffic is still in flight: in-flight requests must
	// finish normally, later ones get 503 — never a torn result.
	wg.Add(1)
	go func() {
		defer wg.Done()
		halfway.Wait()
		if err := srv.Drain(context.Background()); err != nil {
			report("drain: %v", err)
		}
	}()
	wg.Wait()

	for _, f := range failures {
		t.Error(f)
	}
	if len(results) == 0 {
		t.Fatal("no successful queries to audit")
	}
	// Post-hoc audit: each result against the oracle for its version.
	csrs := make(map[uint64]*graph.CSR)
	for _, o := range results {
		csr, ok := csrs[o.version]
		if !ok {
			snap, found := sys.HistoryAt(o.version)
			if !found {
				t.Fatalf("src %d: reported version %d not in history", o.source, o.version)
			}
			csr = snap.CSR(false)
			csrs[o.version] = csr
		}
		if len(o.values) != csr.N {
			t.Fatalf("src %d v=%d: %d values for %d vertices", o.source, o.version, len(o.values), csr.N)
		}
		want := oracle.BestPath(csr, props.BFS{}, o.source)
		for v := range want {
			if o.values[v] != want[v] {
				t.Fatalf("src %d v=%d: level[%d]=%d, oracle %d — result does not match the graph it claims to be about",
					o.source, o.version, v, o.values[v], want[v])
			}
		}
	}
	t.Logf("audited %d successful queries across %d distinct versions", len(results), len(csrs))
}

// postJSONCode posts without decoding the response (concurrent-safe: no
// t.Fatal).
func postJSONCode(t *testing.T, url string, body any) int {
	b, err := json.Marshal(body)
	if err != nil {
		t.Error(err)
		return 0
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Error(err)
		return 0
	}
	defer resp.Body.Close()
	return resp.StatusCode
}
