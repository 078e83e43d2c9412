package main

import (
	"fmt"
	"math"
)

// layerMetric describes one per-layer metric: its unit, the direction
// that counts as better, and the end-to-end metric (and workload) a
// change to it is expected to move — written down before measuring, as
// the README's interaction table.
type layerMetric struct {
	name, unit, better string
	moves              string
}

var layerCatalog = []layerMetric{
	{"streamgraph.insert_ms", "ms", "lower", "batch_p50_ms, ingest_eps on ingest-churn"},
	{"streamgraph.delete_ms", "ms", "lower", "ingest_eps on ingest-churn"},
	{"streamgraph.flatten_from_ms", "ms", "lower", "batch_p50_ms, ingest_eps on ingest-churn"},
	{"streamgraph.flatten_full_ms", "ms", "lower", "setup_s everywhere"},
	{"streamgraph.copied_kb_per_batch", "count", "lower", "batch_p50_ms on ingest-churn (exact count)"},
	{"streamgraph.slab_miss_ratio", "ratio", "lower", "batch_p50_ms on ingest-churn"},
	{"standing.build_ms", "ms", "lower", "setup_s everywhere"},
	{"standing.update_ms", "ms", "lower", "batch_p50_ms, ingest_eps on ingest-churn"},
	{"standing.update_activations", "count", "lower", "batch_p50_ms on ingest-churn"},
	{"standing.trim_ms", "ms", "lower", "ingest_eps on ingest-churn"},
	{"standing.select_us", "us", "lower", "query_p50_ms on query-minmax"},
	{"triangle.delta_init_us", "us", "lower", "query_p50_ms on query-minmax"},
	{"triangle.act_ratio", "ratio", "lower", "delta_speedup on query-additive (Table 4)"},
	{"triangle.init_exact_ratio", "ratio", "higher", "delta_speedup on query-additive (Fig. 12)"},
	{"engine.delta_run_ms", "ms", "lower", "query_p50_ms, query_qps on query-additive; no move on query-minmax"},
	{"engine.relaxations_per_query", "count", "lower", "query_p50_ms on query-additive"},
	{"engine.activations_per_query", "count", "lower", "query_p50_ms on query-additive"},
	{"engine.iterations_per_query", "count", "lower", "query_p50_ms on query-additive"},
	{"engine.dense_iter_ratio", "ratio", "lower", "query_p50_ms on query-additive"},
	{"engine.full_run_ms", "ms", "lower", "full_p50_ms everywhere"},
	{"engine.ns_per_relaxation", "ns", "lower", "full_p50_ms everywhere"},
	{"engine.widthk_ns_per_relaxation", "ns", "lower", "batch_p50_ms on ingest-churn"},
	{"engine.state_alloc_us", "us", "lower", "query_p50_ms on query-minmax"},
	{"core.query_self_ms", "ms", "lower", "query_p50_ms, query_p90_ms on query-minmax"},
	{"core.alloc_kb_per_query", "count", "lower", "query_p90_ms on query-minmax"},
	{"core.apply_self_ms", "ms", "lower", "batch_p50_ms on ingest-churn"},
	{"core.subscribe_refresh_ms", "ms", "lower", "batch_p50_ms on ingest-churn"},
	{"core.frames_dropped_ratio", "ratio", "lower", "batch_p50_ms on ingest-churn"},
	{"shard.query_ms", "ms", "lower", "query_p50_ms, delta_speedup on serve-sharded"},
	{"shard.gather_rounds_per_query", "count", "lower", "query_p50_ms on serve-sharded"},
	{"shard.scatter_runs_per_query", "count", "lower", "query_p50_ms on serve-sharded"},
	{"shard.gather_overhead", "ratio", "lower", "query_p50_ms, delta_speedup on serve-sharded (base = S=1)"},
	{"shard.apply_ms", "ms", "lower", "batch_p50_ms on serve-sharded"},
	{"shard.subbatches_per_batch", "count", "lower", "batch_p50_ms on serve-sharded (exact count)"},
	{"shard.cache_hit_ratio", "ratio", "higher", "query_qps on serve-sharded (exact count)"},
	{"server.query_self_ms", "ms", "lower", "query_p50_ms, query_qps on serve-sharded"},
	{"server.apply_self_ms", "ms", "lower", "batch_p50_ms on serve-sharded"},
	{"server.resp_kb_per_query", "count", "lower", "query_p50_ms on serve-sharded"},
	{"server.rejected_ratio", "ratio", "lower", "query_qps on serve-sharded"},
	{"benchmark.trace_overhead", "ratio", "lower", "none: cost of the traced run itself"},
	{"benchmark.round_spread_max", "ratio", "lower", "none: repeatability of the run itself"},
	{"benchmark.machine_speed", "ratio", "higher", "none: the machine's speed during the run, reference machine = 1; per-layer times are as measured"},
}

// exactCounts are the per-layer metrics that are functions of the
// script alone and must repeat exactly from run to run (see README).
var exactCounts = []string{
	"streamgraph.copied_kb_per_batch",
	"shard.subbatches_per_batch",
	"shard.cache_hit_ratio",
}

// spanSet is the measured (non-warm-up) spans of one name.
type spanSet []span

func (ss spanSet) each(f func(span) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

func (ss spanSet) ms() []float64 { return ss.each(span.ms) }
func (ss spanSet) us() []float64 { return ss.each(span.us) }

func (ss spanSet) count(key string) []float64 {
	return ss.each(func(s span) float64 { return s.Counts[key] })
}

func (ss spanSet) where(keep func(span) bool) spanSet {
	var out spanSet
	for _, s := range ss {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

func has(key string) func(span) bool {
	return func(s span) bool { return s.Counts[key] > 0 }
}

// layerMetrics reduces a traced run's spans to the per-layer metrics:
// medians of span durations, means of per-call counts, and ratios of
// summed counts. A metric without a single sample is an error — every
// traced run must exercise every layer.
func layerMetrics(spans []span) (map[string]float64, error) {
	byName := make(map[string]spanSet)
	for _, s := range spans {
		if s.Round != phaseWarmup {
			byName[s.Name] = append(byName[s.Name], s)
		}
	}
	sel := func(name string) spanSet { return byName[name] }
	sumOf := func(name, key string) float64 { return sum(sel(name).count(key)) }

	m := make(map[string]float64)

	// streamgraph
	m["streamgraph.insert_ms"] = median(sel("streamgraph.insert").ms())
	m["streamgraph.delete_ms"] = median(sel("streamgraph.delete").ms())
	m["streamgraph.flatten_from_ms"] = median(sel("streamgraph.flatten_from").ms())
	m["streamgraph.flatten_full_ms"] = median(sel("streamgraph.flatten_full").ms())
	m["streamgraph.copied_kb_per_batch"] = mean(sel("streamgraph.flatten_from").count("copied_bytes")) / 1024
	m["streamgraph.slab_miss_ratio"] = ratio(
		sumOf("streamgraph.flatten_from", "slab_misses")+sumOf("streamgraph.flatten_full", "slab_misses"),
		sumOf("streamgraph.flatten_from", "slab_gets")+sumOf("streamgraph.flatten_full", "slab_gets"))

	// standing
	update := sel("standing.update")
	m["standing.build_ms"] = median(sel("standing.build").ms())
	m["standing.update_ms"] = median(update.ms())
	m["standing.update_activations"] = mean(update.count("activations"))
	m["standing.trim_ms"] = median(sel("standing.trim").ms())
	m["standing.select_us"] = median(sel("standing.select").us())

	// triangle
	delta, full := sel("engine.delta_run"), sel("engine.full_run")
	m["triangle.delta_init_us"] = median(sel("triangle.delta_init").us())
	m["triangle.act_ratio"] = ratio(sum(delta.count("activations")), sum(full.count("activations")))
	m["triangle.init_exact_ratio"] = mean(sel("probe.delta").count("init_exact"))

	// engine
	m["engine.delta_run_ms"] = median(delta.ms())
	m["engine.relaxations_per_query"] = mean(delta.count("relaxations"))
	m["engine.activations_per_query"] = mean(delta.count("activations"))
	m["engine.iterations_per_query"] = mean(delta.count("iterations"))
	m["engine.dense_iter_ratio"] = ratio(sum(delta.count("dense_iterations")), sum(delta.count("iterations")))
	m["engine.full_run_ms"] = median(full.ms())
	m["engine.ns_per_relaxation"] = ratio(sum(full.each(span.ns)), sum(full.count("relaxations")))
	m["engine.widthk_ns_per_relaxation"] = ratio(sum(update.each(span.ns)), sum(update.count("relaxations")))
	m["engine.state_alloc_us"] = median(sel("engine.state_alloc").us())

	// core: a query's self time is the one-call span minus the stages
	// the layer stack re-performed for the same op (pin, lock, result
	// materialisation and the allocation of the value array remain).
	stages := make(map[int]float64)
	for _, name := range []string{"standing.select", "standing.column", "triangle.delta_init", "engine.delta_run"} {
		for _, s := range sel(name) {
			stages[s.OpID] += s.ms()
		}
	}
	coreQ := sel("core.query")
	m["core.query_self_ms"] = median(coreQ.each(func(s span) float64 { return s.ms() - stages[s.OpID] }))
	m["core.alloc_kb_per_query"] = mean(coreQ.count("alloc_bytes")) / 1024
	coreA := sel("core.apply")
	m["core.apply_self_ms"] = median(coreA.where(has("insert")).each(func(s span) float64 {
		return s.ms() - (s.Counts["backend_ns"]+s.Counts["refresh_ns"])/1e6
	}))
	m["core.subscribe_refresh_ms"] = median(coreA.where(has("subscribers")).count("refresh_ns")) / 1e6
	dropped := sum(coreA.count("frames_dropped"))
	m["core.frames_dropped_ratio"] = ratio(dropped, dropped+sum(coreA.count("frames_sent")))

	// shard and server: the serving stack reports its backend's own
	// evaluation time in every response, so the server's self time is
	// the request's span minus that (decode, admission, encode,
	// loopback), taken on the same request.
	srvQ := sel("server.query")
	m["shard.query_ms"] = median(srvQ.count("backend_ns")) / 1e6
	m["shard.gather_rounds_per_query"] = mean(srvQ.count("gather_rounds"))
	m["shard.scatter_runs_per_query"] = mean(srvQ.count("scatter_runs"))
	m["shard.gather_overhead"] = ratio(sum(srvQ.count("backend_ns")), sum(coreQ.count("backend_ns")))
	srvA := sel("server.apply").where(has("insert"))
	m["shard.apply_ms"] = median(srvA.count("backend_ns")) / 1e6
	m["shard.subbatches_per_batch"] = mean(srvA.count("subbatches"))
	m["server.query_self_ms"] = median(srvQ.each(func(s span) float64 { return s.ms() - s.Counts["backend_ns"]/1e6 }))
	m["server.apply_self_ms"] = median(srvA.each(func(s span) float64 { return s.ms() - s.Counts["backend_ns"]/1e6 }))
	// Cache share and response size describe the script's own requests
	// when the script is served over HTTP, the probes' otherwise.
	served := append(sel("op.delta"), sel("op.repeat")...).where(func(s span) bool { _, ok := s.Counts["resp_bytes"]; return ok })
	if len(served) == 0 {
		served = srvQ
	}
	m["shard.cache_hit_ratio"] = mean(served.count("cache_hit"))
	m["server.resp_kb_per_query"] = mean(served.count("resp_bytes")) / 1024

	// the run itself
	for _, s := range sel("benchmark.rounds") {
		m["server.rejected_ratio"] = ratio(s.Counts["rejected"], s.Counts["http_requests"])
		m["benchmark.trace_overhead"] = ratio(s.Counts["wall_ns"], s.Counts["op_ns"])
		m["benchmark.round_spread_max"] = s.Counts["round_spread_max"]
		m["benchmark.machine_speed"] = s.Counts["machine_speed"]
	}

	for _, lm := range layerCatalog {
		v, ok := m[lm.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("per-layer metric %s has no samples in this trace", lm.name)
		}
	}
	return m, nil
}
