package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Phases a span can belong to. Warm-up spans are recorded (they show
// the cold costs) but excluded from every per-layer metric.
const (
	phaseSetup  = -1
	phaseWarmup = 0
	// 1..rounds are the measured rounds.
	phaseExtras = rounds + 1
)

// span is one timed call into a layer. Spans of one op share OpID;
// Parent is the ID of the enclosing span (0 for an op's root span).
// Counts carries what the call returned (engine.Stats, BatchReport
// fields, counter deltas), so ratios are taken where the work happens.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	OpID    int    `json:"op_id"`
	Round   int    `json:"round"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// SelfNS is filled in when the trace is written: the span's duration
	// minus the part its children cover.
	SelfNS int64              `json:"self_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

func (s span) ns() float64 { return float64(s.EndNS - s.StartNS) }
func (s span) ms() float64 { return s.ns() / 1e6 }
func (s span) us() float64 { return s.ns() / 1e3 }

// tracer keeps spans in memory for the length of the run; they are
// written out once, at exit.
type tracer struct {
	origin time.Time
	spans  []span
	op     int
	round  int
}

func newTracer() *tracer { return &tracer{origin: time.Now(), round: phaseSetup} }

// newOp starts a new op: the spans recorded until the next call share
// its identifier.
func (t *tracer) newOp() { t.op++ }

// begin opens a span under parent (0 = root of the current op) and
// returns its ID.
func (t *tracer) begin(parent int, name string) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, OpID: t.op, Round: t.round, Name: name,
		StartNS: time.Since(t.origin).Nanoseconds(),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].EndNS = time.Since(t.origin).Nanoseconds() }

// record adds a span for a call that was timed by the callee (the
// targets stop their own clocks): it ends now and lasted d.
func (t *tracer) record(parent int, name string, d time.Duration) int {
	id := t.begin(parent, name)
	s := &t.spans[id-1]
	s.EndNS = s.StartNS
	s.StartNS -= d.Nanoseconds()
	return id
}

// timed runs f inside a span.
func (t *tracer) timed(parent int, name string, f func()) int {
	id := t.begin(parent, name)
	f()
	t.end(id)
	return id
}

func (t *tracer) count(id int, key string, v float64) {
	s := &t.spans[id-1]
	if s.Counts == nil {
		s.Counts = make(map[string]float64)
	}
	s.Counts[key] = v
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover (overlapping children are
// not subtracted twice; a child is clipped to its parent).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, p := range spans {
		kids := children[p.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), p.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, p.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[p.ID] = p.EndNS - p.StartNS - covered
	}
	return self
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	ScriptHash string `json:"script_hash"`
	Spans      []span `json:"spans"`
}

func writeTrace(dir string, tf traceFile) (string, error) {
	self := selfTimes(tf.Spans)
	for i := range tf.Spans {
		tf.Spans[i].SelfNS = self[tf.Spans[i].ID]
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(tf); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
