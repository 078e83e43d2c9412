package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// Every workload, shrunk to a LogN=10 graph, must run clean and emit
// all nine end-to-end metrics as positive finite numbers.
func TestSmokeUntraced(t *testing.T) {
	for _, w := range workloads {
		res, err := runWorkload(tiny(w), 11, false, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.correct || res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.correct, res.attempted, res.failed)
		}
		if len(res.e2e) != len(e2eMetrics) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.name, len(res.e2e), len(e2eMetrics))
		}
		for _, m := range e2eMetrics {
			if r, ok := res.e2e[m.name]; !ok || !(r.value > 0) || math.IsInf(r.value, 0) {
				t.Errorf("%s: %s = %+v", w.name, m.name, r)
			}
		}

		// The result line carries exactly the contract's keys.
		var out bytes.Buffer
		report(&out, res)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("%s: last line is not JSON: %v", w.name, err)
		}
		for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
			if _, ok := line[k]; !ok {
				t.Errorf("%s: result line lacks %q", w.name, k)
			}
		}
		if len(line) != 4 {
			t.Errorf("%s: result line has %d keys, want 4", w.name, len(line))
		}
	}
}

// A traced run must emit every per-layer metric and a trace file of
// parent-linked spans; two in-process replays of one seed must agree on
// the exact counts to the last digit.
func TestSmokeTracedAndExactCounts(t *testing.T) {
	for _, w := range workloads {
		dir := t.TempDir()
		a, err := runWorkload(tiny(w), 5, true, dir)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !a.correct || a.failed != 0 {
			t.Errorf("%s: correct=%v failed=%d", w.name, a.correct, a.failed)
		}
		for _, m := range layerCatalog {
			if v, ok := a.layers[m.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer metric %s = %v (present %v)", w.name, m.name, v, ok)
			}
		}
		if w.http && a.layers["shard.cache_hit_ratio"] != float64(tiny(w).repeats)/float64(tiny(w).deltas+tiny(w).repeats) {
			t.Errorf("%s: cache hit ratio %v, want the script's repeat share", w.name, a.layers["shard.cache_hit_ratio"])
		}

		raw, err := os.ReadFile(a.tracePath)
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(raw, &tf); err != nil {
			t.Fatalf("%s: trace file: %v", w.name, err)
		}
		byID := make(map[int]span)
		for _, s := range tf.Spans {
			byID[s.ID] = s
		}
		linked := 0
		for _, s := range tf.Spans {
			if s.EndNS < s.StartNS || s.SelfNS < 0 || s.SelfNS > s.EndNS-s.StartNS {
				t.Errorf("%s: span %d (%s): %d..%d ns, self %d ns", w.name, s.ID, s.Name, s.StartNS, s.EndNS, s.SelfNS)
			}
			if s.Parent != 0 {
				p, ok := byID[s.Parent]
				if !ok || p.OpID != s.OpID || s.StartNS < p.StartNS || s.EndNS > p.EndNS {
					t.Errorf("%s: span %d (%s) is not inside its parent %d", w.name, s.ID, s.Name, s.Parent)
				}
				linked++
			}
		}
		if linked == 0 {
			t.Errorf("%s: no parent-linked spans", w.name)
		}

		b, err := runWorkload(tiny(w), 5, true, dir)
		if err != nil {
			t.Fatalf("%s replay: %v", w.name, err)
		}
		if a.scriptHash != b.scriptHash {
			t.Errorf("%s: replay ran a different script", w.name)
		}
		for _, name := range exactCounts {
			if a.layers[name] != b.layers[name] {
				t.Errorf("%s: exact count %s differs between replays: %v vs %v", w.name, name, a.layers[name], b.layers[name])
			}
		}
	}
}

// BENCHMARK.json must name exactly what the program emits.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds %d, the counts are calibrated for %d", spec.RunSeconds, nominalSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why == "" || len(spec.Workloads[i].Why) > 200 {
			t.Errorf("workload %d: %+v, want %s with a one-line why", i, spec.Workloads[i], w.name)
		}
	}
	if len(spec.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("%d end-to-end metrics listed, program emits %d", len(spec.EndToEnd), len(e2eMetrics))
	}
	for i, m := range e2eMetrics {
		got := spec.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit {
			t.Errorf("end-to-end metric %d: %s [%s], program emits %s [%s]", i, got.Name, got.Unit, m.name, m.unit)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", got.Name, got.Bound)
		}
		if got.Bound > spec.EndToEnd[0].Bound {
			t.Errorf("%s: bound %v exceeds setup_s's, which must be the largest", got.Name, got.Bound)
		}
	}
	if len(spec.PerLayer) != len(layerCatalog) {
		t.Fatalf("%d per-layer metrics listed, program emits %d", len(spec.PerLayer), len(layerCatalog))
	}
	for i, m := range layerCatalog {
		if got := spec.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer metric %d: %+v, program emits %+v", i, got, m)
		}
	}
}
