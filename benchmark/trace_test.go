package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, StartNS: 20, EndNS: 50},   // overlaps 2: the union covers 10..50
		{ID: 4, Parent: 1, StartNS: 90, EndNS: 130},  // clipped to its parent: 90..100
		{ID: 5, Parent: 3, StartNS: 25, EndNS: 35},   // grandchild: only 3 pays for it
		{ID: 6, Parent: 0, StartNS: 200, EndNS: 260}, // no children
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 40, 5: 10, 6: 60} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestTracerSpans(t *testing.T) {
	tr := newTracer()
	tr.round = 2
	tr.newOp()
	root := tr.begin(0, "probe.delta")
	child := tr.timed(root, "standing.select", func() { time.Sleep(time.Millisecond) })
	tr.end(root)
	tr.count(child, "activations", 3)
	tr.newOp()
	rec := tr.record(0, "core.query", 5*time.Millisecond)

	r, c, q := tr.spans[root-1], tr.spans[child-1], tr.spans[rec-1]
	if c.Parent != r.ID || c.OpID != r.OpID || q.OpID == r.OpID || r.Round != 2 {
		t.Errorf("span linkage: root %+v child %+v recorded %+v", r, c, q)
	}
	if c.StartNS < r.StartNS || c.EndNS > r.EndNS || c.ns() < 1e6 {
		t.Errorf("child %d..%d not inside root %d..%d or shorter than its sleep", c.StartNS, c.EndNS, r.StartNS, r.EndNS)
	}
	if q.ns() != 5e6 {
		t.Errorf("recorded span lasts %v ns, want 5 ms", q.ns())
	}
	if c.Counts["activations"] != 3 {
		t.Errorf("counts = %v", c.Counts)
	}
}

// A hand-built trace with one probe op and one batch op per stack: the
// reductions must pick the right spans, skip the warm-up, and do the
// self-time arithmetic (one call minus the stages of the same op).
func TestLayerMetricsArithmetic(t *testing.T) {
	ms := func(x float64) int64 { return int64(x * 1e6) }
	var spans []span
	add := func(round, op int, name string, startMs, endMs float64, counts map[string]float64) {
		spans = append(spans, span{ID: len(spans) + 1, OpID: op, Round: round, Name: name,
			StartNS: ms(startMs), EndNS: ms(endMs), Counts: counts})
	}
	stats := func(act, relax, iters, dense float64) map[string]float64 {
		return map[string]float64{"activations": act, "relaxations": relax, "iterations": iters, "dense_iterations": dense}
	}
	for _, round := range []int{phaseWarmup, 1} {
		scale := 1.0
		if round == phaseWarmup {
			scale = 100 // warm-up spans are wildly different and must not count
		}
		add(round, 1, "engine.full_run", 0, 20*scale, stats(1000, 4000, 10, 2))
		add(round, 1, "probe.delta", 20, 30, map[string]float64{"init_exact": 0.75})
		add(round, 1, "standing.select", 20, 20.002, nil)
		add(round, 1, "standing.column", 20.1, 20.4, nil)
		add(round, 1, "engine.state_alloc", 20.4, 20.9, nil)
		add(round, 1, "triangle.delta_init", 21, 22, nil)
		add(round, 1, "engine.delta_run", 22, 28*scale, stats(250, 1000, 5, 1))
		add(round, 1, "core.query", 30, 30+8*scale, map[string]float64{"backend_ns": 7.9e6, "alloc_bytes": 2048})
		add(round, 1, "server.query", 40, 64, map[string]float64{"backend_ns": 20e6, "resp_bytes": 4096, "cache_hit": 0, "gather_rounds": 9, "scatter_runs": 36})
		add(round, 2, "core.apply", 100, 150, map[string]float64{"insert": 1, "backend_ns": 40e6, "refresh_ns": 6e6, "subscribers": 4, "frames_sent": 3, "frames_dropped": 1})
		add(round, 2, "streamgraph.insert", 150, 153, nil)
		add(round, 2, "streamgraph.flatten_from", 153, 155, map[string]float64{"copied_bytes": 10240, "slab_gets": 2, "slab_misses": 1})
		add(round, 2, "standing.update", 155, 175, stats(5000, 10000, 8, 3))
		add(round, 2, "server.apply", 180, 200, map[string]float64{"insert": 1, "backend_ns": 18e6, "subbatches": 4})
	}
	add(phaseSetup, 0, "streamgraph.flatten_full", 0, 9, map[string]float64{"slab_gets": 2, "slab_misses": 2})
	add(phaseSetup, 0, "standing.build", 9, 99, nil)
	add(phaseExtras, 3, "streamgraph.delete", 300, 300.5, nil)
	add(phaseExtras, 3, "standing.trim", 301, 311, nil)
	add(1, 4, "benchmark.rounds", 0, 1000, map[string]float64{"wall_ns": 150, "op_ns": 100, "round_spread_max": 0.2, "rejected": 0, "http_requests": 10})

	m, err := layerMetrics(spans)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"streamgraph.insert_ms":           3,
		"streamgraph.flatten_full_ms":     9,
		"streamgraph.copied_kb_per_batch": 10,
		"streamgraph.slab_miss_ratio":     0.75,
		"standing.build_ms":               90,
		"standing.update_activations":     5000,
		"standing.trim_ms":                10,
		"standing.select_us":              2,
		"triangle.delta_init_us":          1000,
		"triangle.act_ratio":              0.25,
		"triangle.init_exact_ratio":       0.75,
		"engine.delta_run_ms":             6,
		"engine.dense_iter_ratio":         0.2,
		"engine.ns_per_relaxation":        20e6 / 4000,
		"engine.widthk_ns_per_relaxation": 20e6 / 10000,
		"core.query_self_ms":              8 - (0.002 + 0.3 + 1 + 6),
		"core.alloc_kb_per_query":         2,
		"core.apply_self_ms":              50 - 40 - 6,
		"core.subscribe_refresh_ms":       6,
		"core.frames_dropped_ratio":       0.25,
		"shard.query_ms":                  20,
		"shard.gather_overhead":           20 / 7.9,
		"shard.subbatches_per_batch":      4,
		"shard.cache_hit_ratio":           0,
		"server.query_self_ms":            4,
		"server.apply_self_ms":            2,
		"server.resp_kb_per_query":        4,
		"benchmark.trace_overhead":        1.5,
		"benchmark.round_spread_max":      0.2,
	} {
		if got := m[name]; !nearly(got, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if len(m) != len(layerCatalog) {
		t.Errorf("%d metrics reduced, catalog lists %d", len(m), len(layerCatalog))
	}

	// Without any deletion sample the trace is incomplete.
	var noDelete []span
	for _, s := range spans {
		if s.Name != "streamgraph.delete" {
			noDelete = append(noDelete, s)
		}
	}
	if _, err := layerMetrics(noDelete); err == nil {
		t.Error("a trace without a deletion span should not reduce")
	}
}

func nearly(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-6*(1+b)
}
