package shard

import (
	"tripoline/internal/metrics"
)

// Metrics instruments the router's apply path: batch splitting. All
// methods are nil-safe so an uninstrumented router (tests, the bench
// harness) pays a single nil check per event.
type Metrics struct {
	// Batches counts apply calls admitted by the router (each advances
	// the global version by one).
	Batches *metrics.Counter
	// SubBatches counts per-shard sub-batches actually applied — the
	// batch-split fan-out. A batch whose arcs all hash to one shard
	// contributes 1; a perfectly spread batch contributes S.
	SubBatches *metrics.Counter
}

// registerMetrics registers the router's instruments on reg (idempotent
// by name).
func registerMetrics(reg *metrics.Registry) *Metrics {
	return &Metrics{
		Batches: reg.Counter("tripoline_shard_batches_total",
			"Update batches admitted by the shard router."),
		SubBatches: reg.Counter("tripoline_shard_subbatches_total",
			"Per-shard sub-batches applied (batch-split fan-out)."),
	}
}

func (m *Metrics) noteBatch(subBatches int) {
	if m == nil {
		return
	}
	m.Batches.Inc()
	m.SubBatches.Add(int64(subBatches))
}
