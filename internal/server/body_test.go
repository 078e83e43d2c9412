package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"tripoline/internal/core"
	"tripoline/internal/engine"
	"tripoline/internal/xrand"
)

// The value-carrying wire types as encoding/json encodes them. They are
// the reference every hand-appended body must equal byte for byte, kept
// here verbatim rather than shared with body.go so a change to a head
// struct's field or tag shows up as a mismatch.
type queryResponse struct {
	Problem     string   `json:"problem"`
	Source      uint32   `json:"source"`
	Incremental bool     `json:"incremental"`
	Seconds     float64  `json:"seconds"`
	Activations int64    `json:"activations"`
	Version     uint64   `json:"version"`
	Values      []uint64 `json:"values"`
	Counts      []uint64 `json:"counts,omitempty"`
	Radius      uint64   `json:"radius,omitempty"`
}

type queryManyResponse struct {
	Problem string   `json:"problem"`
	Sources []uint32 `json:"sources"`
	Width   int      `json:"width"`
	Version uint64   `json:"version"`
	Seconds float64  `json:"seconds"`
	Values  []uint64 `json:"values"`
}

// encodeJSON is what json.NewEncoder(w).Encode(v) writes.
func encodeJSON(t testing.TB, v any) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func toQueryResponse(res *core.QueryResult) queryResponse {
	return queryResponse{
		Problem:     res.Problem,
		Source:      uint32(res.Source),
		Incremental: res.Incremental,
		Seconds:     res.Elapsed.Seconds(),
		Activations: res.Stats.Activations,
		Version:     res.Version,
		Values:      res.Values,
		Counts:      res.Counts,
		Radius:      res.Radius,
	}
}

func refQuery(t testing.TB, res *core.QueryResult) []byte {
	return encodeJSON(t, toQueryResponse(res))
}

func refQueryMany(t testing.TB, sources []uint32, res *core.MultiResult) []byte {
	return encodeJSON(t, queryManyResponse{
		Problem: res.Problem,
		Sources: sources,
		Width:   res.Width,
		Version: res.Version,
		Seconds: res.Elapsed.Seconds(),
		Values:  res.Values,
	})
}

// refEvent is the SSE event json.Marshal and fmt.Fprintf produced.
func refEvent(t testing.TB, event string, payload any) []byte {
	data, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	return []byte(fmt.Sprintf("event: %s\ndata: %s\n\n", event, data))
}

// bodyInput is one response's content, from which checkBodies builds a
// query result, a querymany result and a snapshot and a delta frame.
type bodyInput struct {
	problem     string
	source      uint32
	incremental bool
	elapsed     time.Duration
	activations int64
	version     uint64
	values      []uint64
	counts      []uint64
	radius      uint64
	width       int
	sources     []uint32
}

// deltasOf turns vs into delta entries, keeping nil as nil.
func deltasOf(vs []uint64) []core.VertexDelta {
	if vs == nil {
		return nil
	}
	ds := make([]core.VertexDelta, len(vs))
	for i, v := range vs {
		ds[i] = core.VertexDelta{Vertex: uint32(v), Value: v}
	}
	return ds
}

// checkPlain asserts that a recorded plain response is want, sent with
// the Content-Length and Content-Type the body writer sets.
func checkPlain(t *testing.T, what string, rec *httptest.ResponseRecorder, want []byte) {
	t.Helper()
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("%s body differs from encoding/json:\n got %q\nwant %q", what, got, want)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
		t.Fatalf("%s Content-Length %q, body is %d bytes", what, cl, len(want))
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s Content-Type %q", what, ct)
	}
}

// checkBodies holds every body the writer produces for in to what
// encoding/json produces for the same response.
func checkBodies(t *testing.T, in bodyInput) {
	t.Helper()
	res := &core.QueryResult{
		Problem:     in.problem,
		Source:      in.source,
		Values:      in.values,
		Counts:      in.counts,
		Radius:      in.radius,
		Stats:       engine.Stats{Activations: in.activations},
		Elapsed:     in.elapsed,
		Incremental: in.incremental,
		Version:     in.version,
	}
	rec := httptest.NewRecorder()
	if code := writeQueryResult(rec, res); code != http.StatusOK {
		t.Fatalf("writeQueryResult returned %d", code)
	}
	checkPlain(t, "query", rec, refQuery(t, res))
	if v := rec.Header().Get("X-Tripoline-Version"); v != strconv.FormatUint(in.version, 10) {
		t.Fatalf("X-Tripoline-Version %q, want %d", v, in.version)
	}

	many := &core.MultiResult{Problem: in.problem, Values: in.values, Width: in.width, Elapsed: in.elapsed, Version: in.version}
	rec = httptest.NewRecorder()
	writeBody(rec, func(b []byte) []byte { return appendQueryMany(b, in.sources, many) })
	checkPlain(t, "querymany", rec, refQueryMany(t, in.sources, many))

	frames := []core.ResultFrame{
		{Kind: "snapshot", Problem: in.problem, Source: in.source, Version: in.version, Values: in.values, Counts: in.counts},
		{Kind: "delta", Problem: in.problem, Source: in.source, Version: in.version, Changed: deltasOf(in.values), ChangedCounts: deltasOf(in.counts)},
	}
	for _, f := range frames {
		var sse bytes.Buffer
		if err := writeEvent(&sse, &f); err != nil {
			t.Fatal(err)
		}
		if want := refEvent(t, f.Kind, f); !bytes.Equal(sse.Bytes(), want) {
			t.Fatalf("%s event differs from encoding/json:\n got %q\nwant %q", f.Kind, sse.Bytes(), want)
		}
		rec = httptest.NewRecorder()
		writeBody(rec, func(b []byte) []byte { return appendFrame(b, &f) })
		checkPlain(t, f.Kind+" poll", rec, encodeJSON(t, f))
	}
}

func TestResponseBodyTable(t *testing.T) {
	const max = math.MaxUint64
	cases := []struct {
		name string
		in   bodyInput
	}{
		{"nil arrays", bodyInput{problem: "SSSP"}},
		{"empty arrays", bodyInput{problem: "BFS", values: []uint64{}, counts: []uint64{}, sources: []uint32{}}},
		{"unreached and reached", bodyInput{problem: "SSSP", source: 7, incremental: true, elapsed: 1500 * time.Microsecond,
			activations: 42, version: 3, values: []uint64{0, 5, max, 999, max}, width: 1, sources: []uint32{7}}},
		{"digit-count boundaries", bodyInput{problem: "SSSP", values: []uint64{0, 9, 10, 99, 100, 999, 1000, 9999, 10000,
			math.MaxUint32, 1 << 53, max - 1, max}, counts: []uint64{7}}},
		{"ssnsp counts", bodyInput{problem: "SSNSP", values: []uint64{0, 1, max}, counts: []uint64{1, 2, 0}}},
		{"radii radius", bodyInput{problem: "Radii", values: []uint64{3, 4}, radius: 12, width: 2}},
		{"html-escaped name", bodyInput{problem: `<a href="x">&'</a>`, values: []uint64{1}}},
		{"non-ascii and invalid utf-8", bodyInput{problem: "Δ-SSSP \u2028\u2029 \xff\xfe", values: []uint64{1}}},
		{"control characters", bodyInput{problem: "a\x00b\tc\nd\\e", values: []uint64{1}}},
		{"seconds in e notation", bodyInput{problem: "SSWP", elapsed: time.Nanosecond, values: []uint64{max}}},
		{"seconds just under e notation", bodyInput{problem: "SSWP", elapsed: 999 * time.Nanosecond}},
		{"seconds at e notation's edge", bodyInput{problem: "SSWP", elapsed: time.Microsecond}},
		{"negative duration", bodyInput{problem: "SSWP", elapsed: -3 * time.Nanosecond}},
		{"extreme scalars", bodyInput{problem: "X", source: math.MaxUint32, elapsed: math.MaxInt64, activations: math.MinInt64,
			version: max, values: []uint64{max - 1, max}, radius: max, width: math.MaxInt32, sources: []uint32{math.MaxUint32, 0}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkBodies(t, c.in) })
	}
	if want := refEvent(t, "goodbye", struct{}{}); goodbyeEvent != string(want) {
		t.Fatalf("goodbye event %q, encoding/json gives %q", goodbyeEvent, want)
	}
}

// uintsOf reads data as little-endian words, a short tail zero-padded;
// empty data gives nil when asked to.
func uintsOf(data []byte, nilIfEmpty bool) []uint64 {
	if len(data) == 0 && nilIfEmpty {
		return nil
	}
	vs := make([]uint64, (len(data)+7)/8)
	for i := range vs {
		var word [8]byte
		copy(word[:], data[i*8:])
		vs[i] = binary.LittleEndian.Uint64(word[:])
	}
	return vs
}

// FuzzResponseBody holds the body writer to encoding/json over fuzzed
// names, sources, durations, counters, versions, array lengths and
// contents, radius and width. shape's bits pick the incremental flag and
// whether an empty values, counts or sources array is nil.
func FuzzResponseBody(f *testing.F) {
	maxWord := bytes.Repeat([]byte{0xff}, 8)
	f.Add("SSSP", uint32(5), int64(1500000), int64(42), uint64(3), append([]byte{1, 0, 0, 0, 0, 0, 0, 0}, maxWord...), []byte(nil), uint64(0), uint8(1), uint8(1))
	f.Add("<Radii>&", uint32(0), int64(1), int64(0), uint64(0), []byte{}, []byte{}, uint64(7), uint8(16), uint8(14))
	f.Fuzz(func(t *testing.T, problem string, source uint32, elapsed, activations int64, version uint64, vals, cnts []byte, radius uint64, width, shape uint8) {
		values := uintsOf(vals, shape&2 != 0)
		var sources []uint32
		if len(values) > 0 || shape&8 == 0 {
			sources = make([]uint32, min(len(values), int(width)))
			for i := range sources {
				sources[i] = uint32(values[i])
			}
		}
		checkBodies(t, bodyInput{
			problem:     problem,
			source:      source,
			incremental: shape&1 != 0,
			elapsed:     time.Duration(elapsed),
			activations: activations,
			version:     version,
			values:      values,
			counts:      uintsOf(cnts, shape&4 != 0),
			radius:      radius,
			width:       int(width),
			sources:     sources,
		})
	})
}

// TestValueBodiesCarryContentLength checks through a real listener that
// a value-carrying response arrives with Content-Length, not chunked.
func TestValueBodiesCarryContentLength(t *testing.T) {
	res := &core.QueryResult{Problem: "SSSP", Values: benchValues(1 << 12)}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		writeQueryResult(w, res)
	}))
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if len(resp.TransferEncoding) != 0 {
		t.Fatalf("Transfer-Encoding %v on a value-carrying response", resp.TransferEncoding)
	}
	if resp.ContentLength != int64(body.Len()) {
		t.Fatalf("Content-Length %d for a %d-byte body", resp.ContentLength, body.Len())
	}
	if !bytes.Equal(body.Bytes(), refQuery(t, res)) {
		t.Fatal("body differs from encoding/json's")
	}
}

// benchValues is an answer shaped like serve-sharded's: about 23 % of the
// vertices unreached (MaxUint64), the rest below 1000.
func benchValues(n int) []uint64 {
	rng := xrand.New(23)
	vs := make([]uint64, n)
	for i := range vs {
		if rng.Intn(100) < 23 {
			vs[i] = math.MaxUint64
		} else {
			vs[i] = uint64(rng.Intn(1000))
		}
	}
	return vs
}

// discardWriter is a ResponseWriter that keeps headers and drops the
// body, so a benchmark times the encoding alone.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// BenchmarkWriteQueryResult compares the body writer (append) with the
// reflection encoding it replaced (encoding-json) on a 2^15-vertex answer:
// a plain query body, a cache hit (the cache's copy-out plus the body) and
// a width-16 querymany body.
func BenchmarkWriteQueryResult(b *testing.B) {
	const n = 1 << 15
	res := &core.QueryResult{Problem: "SSSP", Source: 7, Values: benchValues(n), Incremental: true,
		Elapsed: 2 * time.Millisecond, Stats: engine.Stats{Activations: 1234}, Version: 9}
	cache := core.NewResultCache(1)
	cache.Put(res)
	sources := make([]uint32, 16)
	for i := range sources {
		sources[i] = uint32(i)
	}
	many := &core.MultiResult{Problem: "SSSP", Values: benchValues(16 * n), Width: 16, Elapsed: time.Millisecond, Version: 9}

	encodeOld := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(v)
	}
	cases := []struct {
		name string
		old  func(w http.ResponseWriter)
		new  func(w http.ResponseWriter)
	}{
		{"query",
			func(w http.ResponseWriter) { encodeOld(w, toQueryResponse(res)) },
			func(w http.ResponseWriter) { writeQueryResult(w, res) }},
		{"cache-hit",
			func(w http.ResponseWriter) {
				hit, _ := cache.GetAt(res.Problem, res.Source, res.Version)
				encodeOld(w, toQueryResponse(hit))
			},
			func(w http.ResponseWriter) {
				hit, _ := cache.GetAt(res.Problem, res.Source, res.Version)
				writeQueryResult(w, hit)
			}},
		{"querymany-w16",
			func(w http.ResponseWriter) {
				encodeOld(w, queryManyResponse{Problem: many.Problem, Sources: sources, Width: many.Width,
					Version: many.Version, Seconds: many.Elapsed.Seconds(), Values: many.Values})
			},
			func(w http.ResponseWriter) {
				writeBody(w, func(b []byte) []byte { return appendQueryMany(b, sources, many) })
			}},
	}
	for _, c := range cases {
		for _, side := range []struct {
			name  string
			write func(w http.ResponseWriter)
		}{{"encoding-json", c.old}, {"append", c.new}} {
			b.Run(c.name+"/"+side.name, func(b *testing.B) {
				w := &discardWriter{h: http.Header{}}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					side.write(w)
				}
			})
		}
	}
}
