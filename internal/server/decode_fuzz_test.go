package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"tripoline/internal/core"
	"tripoline/internal/gen"
	"tripoline/internal/server"
	"tripoline/internal/streamgraph"
)

// envelopeCodes is the closed set of machine-readable error codes.
var envelopeCodes = map[string]bool{
	"not_found": true, "bad_request": true, "canceled": true, "deadline": true,
	"draining": true, "overloaded": true, "internal": true,
}

// fuzzMaxVertex bounds the vertex IDs a fuzzed batch may name. The graph
// grows to the largest ID it is sent, which is the stream's contract,
// so a larger ID tests nothing new and costs memory.
const fuzzMaxVertex = 1 << 10

// post sends body to path and returns the status and the response body.
func post(h http.Handler, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// checkEnvelope asserts that a non-2xx body is exactly the v1 error
// envelope with a code from the closed set.
func checkEnvelope(t *testing.T, path string, code int, body []byte) {
	t.Helper()
	var env struct {
		Error *struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil || env.Error == nil {
		t.Fatalf("%s: status %d body %q is not the error envelope (%v)", path, code, body, err)
	}
	if !envelopeCodes[env.Error.Code] || env.Error.Message == "" {
		t.Fatalf("%s: status %d envelope code %q message %q", path, code, env.Error.Code, env.Error.Message)
	}
}

// FuzzServerDecode sends one fuzzed body to /v1/batch, /v1/delete and
// /v1/querymany of a small system. Nothing may panic; every non-2xx
// answer must be the error envelope; a 200 mutation must report every
// edge sent as applied at the next version, and a 200 querymany one
// column per source.
func FuzzServerDecode(f *testing.F) {
	f.Add([]byte(`{"edges":[{"src":1,"dst":2,"w":3},{"src":4,"dst":5}]}`))
	f.Add([]byte(`{"edges":[{"src":1,"dst":1,"w":0},{"src":1,"dst":1,"w":0}]}`))
	f.Add([]byte(`{"edges":[{"src":60,"dst":900}]}`))
	f.Add([]byte(`{"edges":[]}`))
	f.Add([]byte(`{"edges":[{"src":-1,"dst":2}]}`))
	f.Add([]byte(`{"edges":[{"src":1.5,"dst":2}]} trailing`))
	f.Add([]byte(`{"problem":"SSSP","sources":[3,9]}`))
	f.Add([]byte(`{"problem":"BFS","sources":[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32,33,34,35,36,37,38,39,40,41,42,43,44,45,46,47,48,49,50,51,52,53,54,55,56,57,58,59,60,61,62,63,0]}`))
	f.Add([]byte(`{"problem":"PageRank","sources":[1]}`))
	f.Add([]byte(`{"problem":"SSSP","sources":[4000000000]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, body []byte) {
		// The same decoding the handlers apply, to know what was sent.
		var batch struct {
			Edges []struct {
				Src uint32 `json:"src"`
				Dst uint32 `json:"dst"`
				W   uint32 `json:"w"`
			} `json:"edges"`
		}
		if json.NewDecoder(bytes.NewReader(body)).Decode(&batch) == nil {
			for _, e := range batch.Edges {
				if e.Src >= fuzzMaxVertex || e.Dst >= fuzzMaxVertex {
					t.Skip("vertex ID beyond the test's growth budget")
				}
			}
		}
		var many struct {
			Sources []uint32 `json:"sources"`
		}
		manyOK := json.NewDecoder(bytes.NewReader(body)).Decode(&many) == nil

		g := streamgraph.New(64, false)
		g.InsertEdges(gen.Uniform(64, 256, 8, 7))
		sys := core.NewSystem(g, 2)
		for _, p := range []string{"SSSP", "BFS", "PageRank"} {
			if err := sys.Enable(p); err != nil {
				t.Fatal(err)
			}
		}
		h := server.New(sys)

		for _, path := range []string{"/v1/batch", "/v1/delete"} {
			prev := sys.Version()
			code, resp := post(h, path, body)
			if code != http.StatusOK {
				checkEnvelope(t, path, code, resp)
				continue
			}
			var rep struct {
				Applied int    `json:"applied"`
				Version uint64 `json:"version"`
			}
			if err := json.Unmarshal(resp, &rep); err != nil {
				t.Fatalf("%s: 200 body %q: %v", path, resp, err)
			}
			if rep.Applied != len(batch.Edges) || rep.Version != prev+1 {
				t.Fatalf("%s: applied %d at version %d, sent %d edges at version %d",
					path, rep.Applied, rep.Version, len(batch.Edges), prev)
			}
		}

		code, resp := post(h, "/v1/querymany", body)
		if code != http.StatusOK {
			checkEnvelope(t, "/v1/querymany", code, resp)
			return
		}
		var out struct {
			Width  int      `json:"width"`
			Values []uint64 `json:"values"`
		}
		if err := json.Unmarshal(resp, &out); err != nil {
			t.Fatalf("/v1/querymany: 200 body: %v", err)
		}
		if !manyOK || out.Width != len(many.Sources) || len(out.Values) != out.Width*sys.NumVertices() {
			t.Fatalf("/v1/querymany: width %d with %d values for %d sources over %d vertices",
				out.Width, len(out.Values), len(many.Sources), sys.NumVertices())
		}
	})
}
