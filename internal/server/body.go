package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"tripoline/internal/core"
	"tripoline/internal/graph"
)

// One body writer serves every response that carries a value array: the
// /v1/query and /v1/queryat bodies (cache hits included), /v1/querymany,
// the SSE snapshot and delta events, and the long-poll body. Reflecting
// over a 2^15-value answer costs encoding/json about five times what
// appending it does (BenchmarkWriteQueryResult), and a cache hit does
// little else.
//
// Each body is built in two parts. The scalar fields ahead of the first
// array are one small head struct per body, marshalled by encoding/json
// in wire order, so string escaping and float formatting are its own.
// The arrays after them are appended by hand into a pooled buffer,
// honouring encoding/json's null-vs-[] and omitempty rules. Every body is
// byte-for-byte what encoding/json produces for the same response (the
// wire types are pinned in body_test.go; FuzzResponseBody holds the two
// together), and a plain response goes out in one Write with
// Content-Length.

// bodyPool recycles response buffers. A buffer keeps the capacity of the
// largest body it held until the pool drops it at a garbage collection.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

func getBody() *[]byte { return bodyPool.Get().(*[]byte) }

func putBody(b *[]byte) {
	*b = (*b)[:0]
	bodyPool.Put(b)
}

// writeBody sends the JSON document appendDoc appends, followed by the
// newline json.Encoder writes after a value, as one Content-Length Write.
func writeBody(w http.ResponseWriter, appendDoc func([]byte) []byte) int {
	buf := getBody()
	*buf = append(appendDoc((*buf)[:0]), '\n')
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(*buf)))
	_, _ = w.Write(*buf) // a failed write means the client went away; there is no one left to tell
	putBody(buf)
	return http.StatusOK
}

// writeEvent emits one frame as one SSE event: the event name and a
// single JSON data line, in one Write.
func writeEvent(w io.Writer, f *core.ResultFrame) error {
	buf := getBody()
	b := append((*buf)[:0], "event: "...)
	b = append(b, f.Kind...)
	b = append(b, "\ndata: "...)
	b = append(appendFrame(b, f), "\n\n"...)
	_, err := w.Write(b)
	*buf = b
	putBody(buf)
	return err
}

// goodbyeEvent tells an SSE client the stream ends because the server is
// draining (its data is the empty object).
const goodbyeEvent = "event: goodbye\ndata: {}\n\n"

// queryHead is the /v1/query and /v1/queryat body up to its values
// array; counts (omitted when empty) and radius (omitted when 0) follow.
type queryHead struct {
	Problem     string  `json:"problem"`
	Source      uint32  `json:"source"`
	Incremental bool    `json:"incremental"`
	Seconds     float64 `json:"seconds"`
	Activations int64   `json:"activations"`
	// Version is the snapshot version the result is valid for — under
	// concurrent writes a client needs it to know *which* graph it got an
	// answer about (and, with history enabled, to audit the answer via
	// /query_at later).
	Version uint64 `json:"version"`
}

func appendQuery(b []byte, res *core.QueryResult) []byte {
	b = appendHead(b, queryHead{
		Problem:     res.Problem,
		Source:      uint32(res.Source),
		Incremental: res.Incremental,
		Seconds:     res.Elapsed.Seconds(),
		Activations: res.Stats.Activations,
		Version:     res.Version,
	})
	b = appendUints(append(b, `,"values":`...), res.Values)
	if len(res.Counts) > 0 {
		b = appendUints(append(b, `,"counts":`...), res.Counts)
	}
	if res.Radius != 0 {
		b = strconv.AppendUint(append(b, `,"radius":`...), res.Radius, 10)
	}
	return append(b, '}')
}

// queryManyHead is the /v1/querymany body up to its values array, the
// stride-Width array in which Values[x*Width+j] is query j's value at
// vertex x.
type queryManyHead struct {
	Problem string   `json:"problem"`
	Sources []uint32 `json:"sources"`
	Width   int      `json:"width"`
	Version uint64   `json:"version"`
	Seconds float64  `json:"seconds"`
}

func appendQueryMany(b []byte, sources []uint32, res *core.MultiResult) []byte {
	b = appendHead(b, queryManyHead{
		Problem: res.Problem,
		Sources: sources,
		Width:   res.Width,
		Version: res.Version,
		Seconds: res.Elapsed.Seconds(),
	})
	b = appendUints(append(b, `,"values":`...), res.Values)
	return append(b, '}')
}

// frameHead is core.ResultFrame up to its payload arrays, every one of
// which is omitted when empty.
type frameHead struct {
	Kind    string         `json:"kind"`
	Problem string         `json:"problem"`
	Source  graph.VertexID `json:"src"`
	Version uint64         `json:"version"`
}

func appendFrame(b []byte, f *core.ResultFrame) []byte {
	b = appendHead(b, frameHead{Kind: f.Kind, Problem: f.Problem, Source: f.Source, Version: f.Version})
	if len(f.Values) > 0 {
		b = appendUints(append(b, `,"values":`...), f.Values)
	}
	if len(f.Counts) > 0 {
		b = appendUints(append(b, `,"counts":`...), f.Counts)
	}
	if len(f.Changed) > 0 {
		b = appendDeltas(append(b, `,"changed":`...), f.Changed)
	}
	if len(f.ChangedCounts) > 0 {
		b = appendDeltas(append(b, `,"changed_counts":`...), f.ChangedCounts)
	}
	return append(b, '}')
}

// appendHead appends head's JSON object without its closing brace. Every
// head has a field that is never omitted, so the object is not empty.
func appendHead(b []byte, head any) []byte {
	js, err := json.Marshal(head)
	if err != nil {
		// Heads hold strings, integers, bools and a duration's seconds,
		// which is always finite: nothing encoding/json can refuse.
		panic(fmt.Sprintf("server: marshal %T: %v", head, err))
	}
	return append(b, js[:len(js)-1]...)
}

// maxUint64Text is ^uint64(0) in decimal: the identity value of an
// unreached vertex, a large share of a typical answer.
const maxUint64Text = "18446744073709551615"

// appendUints appends vs as encoding/json writes a []uint64: null for a
// nil slice, [] for an empty one. Values of up to three digits, the bulk
// of a distance or level answer, are written digit by digit: on such
// answers that halves the time strconv.AppendUint takes.
func appendUints(b []byte, vs []uint64) []byte {
	if vs == nil {
		return append(b, "null"...)
	}
	if len(vs) == 0 {
		return append(b, "[]"...)
	}
	b = append(b, '[')
	for _, v := range vs {
		switch {
		case v < 10:
			b = append(b, byte('0'+v), ',')
		case v < 100:
			b = append(b, byte('0'+v/10), byte('0'+v%10), ',')
		case v < 1000:
			b = append(b, byte('0'+v/100), byte('0'+v/10%10), byte('0'+v%10), ',')
		case v == math.MaxUint64:
			b = append(b, maxUint64Text+","...)
		default:
			b = append(strconv.AppendUint(b, v, 10), ',')
		}
	}
	b[len(b)-1] = ']' // over the last value's comma
	return b
}

// appendDeltas appends ds as encoding/json writes a non-nil
// []core.VertexDelta.
func appendDeltas(b []byte, ds []core.VertexDelta) []byte {
	b = append(b, '[')
	for i, d := range ds {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"v":`...)
		b = strconv.AppendUint(b, uint64(d.Vertex), 10)
		b = append(b, `,"x":`...)
		b = strconv.AppendUint(b, d.Value, 10)
		b = append(b, '}')
	}
	return append(b, ']')
}
