package server

import (
	"tripoline/internal/core"
	"tripoline/internal/engine"
	"tripoline/internal/metrics"
)

// serverMetrics bundles the instruments the serving layer updates on
// every request. All are registered in one Registry so /v1/metrics and
// the /v1/stats JSON view stay in sync automatically.
type serverMetrics struct {
	reg *metrics.Registry

	queries            *metrics.Counter // user queries admitted (Δ or full)
	queriesFull        *metrics.Counter // of which explicitly full=1
	queriesIncremental *metrics.Counter // of which answered Δ-based
	batches            *metrics.Counter // insertion batches applied
	deletes            *metrics.Counter // deletion batches applied
	batchEdges         *metrics.Counter // edges across all batches
	activations        *metrics.Counter // engine vertex activations spent on queries
	hoists             *metrics.Counter // register-block hoists in the fused kernels
	gateSkips          *metrics.Counter // slots pruned at hoist time (still at the gate value)
	rejected           *metrics.Counter // 429s from the admission gate
	canceled           *metrics.Counter // queries ended by deadline/disconnect
	errors             *metrics.Counter // other 4xx/5xx responses
	cacheHits          *metrics.Counter // queries served from the Δ-result cache
	cacheStaleServed   *metrics.Counter // of which at a non-current version
	subFrames          *metrics.Counter // subscription frames delivered
	subDropped         *metrics.Counter // subscription frames dropped (slow client)
	inflight           *metrics.Gauge   // requests currently executing
	subscribers        *metrics.Gauge   // open subscription streams
	cacheBytes         *metrics.Gauge   // answer bytes resident in the Δ-result cache, set when read

	queryLatency *metrics.Histogram // seconds, wall time incl. queueing
	writeLatency *metrics.Histogram // seconds, batch/delete wall time
	// fanoutFrames and fanoutSeconds describe each batch's subscription
	// refresh: how many frames one advance produced, and what the fused
	// width-K refresh cost — the per-batch serving price of the
	// subscriber population. Observed only when subscribers exist.
	fanoutFrames  *metrics.Histogram
	fanoutSeconds *metrics.Histogram
}

func newServerMetrics(reg *metrics.Registry) *serverMetrics {
	return &serverMetrics{
		reg:                reg,
		queries:            reg.Counter("tripoline_queries_total", "User queries admitted for evaluation."),
		queriesFull:        reg.Counter("tripoline_queries_full_total", "Queries answered by full (non-incremental) evaluation on request."),
		queriesIncremental: reg.Counter("tripoline_queries_incremental_total", "Queries answered Delta-based from standing state."),
		batches:            reg.Counter("tripoline_batches_total", "Edge-insertion batches applied."),
		deletes:            reg.Counter("tripoline_deletes_total", "Edge-deletion batches applied."),
		batchEdges:         reg.Counter("tripoline_batch_edges_total", "Edges across all applied batches."),
		activations:        reg.Counter("tripoline_query_activations_total", "Engine vertex activations spent answering queries."),
		hoists:             reg.Counter("tripoline_kernel_hoists_total", "Register-block hoists performed by the fused width-K kernels."),
		gateSkips:          reg.Counter("tripoline_kernel_gate_skips_total", "Batch slots pruned at hoist time because the source was still at the gate value."),
		rejected:           reg.Counter("tripoline_rejected_total", "Requests refused 429 by the admission gate."),
		canceled:           reg.Counter("tripoline_canceled_total", "Queries ended early by deadline or client disconnect."),
		errors:             reg.Counter("tripoline_errors_total", "Requests answered with another 4xx/5xx status."),
		cacheHits:          reg.Counter("tripoline_cache_hits_total", "Queries served from the Delta-result cache, bypassing the admission gate."),
		cacheStaleServed:   reg.Counter("tripoline_cache_stale_served_total", "Cache hits served at a non-current version under stale=ok."),
		subFrames:          reg.Counter("tripoline_subscribe_frames_total", "Subscription result frames delivered to clients."),
		subDropped:         reg.Counter("tripoline_subscribe_dropped_total", "Subscription frames dropped because a client's buffer was full."),
		inflight:           reg.Gauge("tripoline_inflight", "Requests currently executing."),
		subscribers:        reg.Gauge("tripoline_subscribers", "Subscription streams currently open."),
		cacheBytes:         reg.Gauge("tripoline_cache_bytes", "Answer bytes resident in the Delta-result cache."),
		queryLatency:       reg.Histogram("tripoline_query_seconds", "Query request latency in seconds.", metrics.DefBuckets),
		writeLatency:       reg.Histogram("tripoline_write_seconds", "Batch/delete request latency in seconds.", metrics.DefBuckets),
		fanoutFrames:       reg.Histogram("tripoline_subscribe_fanout_frames", "Result frames produced by one batch's subscription refresh.", []float64{1, 2, 5, 10, 25, 50, 100, 250, 1000}),
		fanoutSeconds:      reg.Histogram("tripoline_subscribe_refresh_seconds", "Wall time of one batch's fused subscription refresh.", metrics.DefBuckets),
	}
}

// observeFanout folds one batch report's subscription refresh into the
// fan-out instruments. Batches with no subscribers are not observed —
// the histograms describe the serving cost per fan-out, not per batch.
func (m *serverMetrics) observeFanout(rep core.BatchReport) {
	if rep.Subscribers == 0 {
		return
	}
	m.subFrames.Add(int64(rep.FramesSent))
	m.subDropped.Add(int64(rep.FramesDropped))
	m.fanoutFrames.Observe(float64(rep.FramesSent))
	m.fanoutSeconds.Observe(rep.RefreshElapsed.Seconds())
}

// observeEngine folds one query's engine statistics into the counters,
// so /v1/stats exposes the fused-kernel work alongside activations.
func (m *serverMetrics) observeEngine(st engine.Stats) {
	m.activations.Add(st.Activations)
	m.hoists.Add(st.Hoists)
	m.gateSkips.Add(st.GateSkips)
}
