package shard

import (
	"time"

	"tripoline/internal/metrics"
)

// Metrics instruments the router: batch splitting on the apply path and
// scatter/gather fan-out on the query path. All methods are nil-safe so
// an uninstrumented router (tests, the bench harness) pays a single nil
// check per event.
type Metrics struct {
	// Batches counts apply calls admitted by the router (each advances
	// the global version by one).
	Batches *metrics.Counter
	// SubBatches counts per-shard sub-batches actually applied — the
	// batch-split fan-out. A batch whose edges all hash to one shard
	// contributes 1; a perfectly spread batch contributes S.
	SubBatches *metrics.Counter
	// ScatterRuns counts per-shard engine runs issued by queries — the
	// scatter fan-out (rounds × shards per gathered query).
	ScatterRuns *metrics.Counter
	// GatherRounds counts scatter/gather rounds (one cross-shard frontier
	// exchange each).
	GatherRounds *metrics.Counter
	// GatherMergeNanos accumulates time spent in the gather step: diffing
	// the shared value array against the pre-round copy to build the next
	// cross-shard frontier.
	GatherMergeNanos *metrics.Counter
}

// registerMetrics registers the router's instruments on reg (idempotent
// by name).
func registerMetrics(reg *metrics.Registry) *Metrics {
	return &Metrics{
		Batches: reg.Counter("tripoline_shard_batches_total",
			"Update batches admitted by the shard router."),
		SubBatches: reg.Counter("tripoline_shard_subbatches_total",
			"Per-shard sub-batches applied (batch-split fan-out)."),
		ScatterRuns: reg.Counter("tripoline_shard_scatter_runs_total",
			"Per-shard engine runs issued by scattered queries."),
		GatherRounds: reg.Counter("tripoline_shard_gather_rounds_total",
			"Cross-shard scatter/gather rounds."),
		GatherMergeNanos: reg.Counter("tripoline_shard_gather_merge_nanos_total",
			"Nanoseconds spent merging per-shard results into the next frontier."),
	}
}

func (m *Metrics) noteBatch(subBatches int) {
	if m == nil {
		return
	}
	m.Batches.Inc()
	m.SubBatches.Add(int64(subBatches))
}

func (m *Metrics) noteScatter(runs int) {
	if m == nil {
		return
	}
	m.ScatterRuns.Add(int64(runs))
	m.GatherRounds.Inc()
}

func (m *Metrics) noteMerge(d time.Duration) {
	if m == nil {
		return
	}
	m.GatherMergeNanos.Add(d.Nanoseconds())
}
