package bench

import (
	"encoding/json"
	"io"
	"time"
)

// Report is the machine-readable form of one full evaluation run,
// written by WriteJSON and consumed by external plotting/diffing tools
// (EXPERIMENTS.md records the human-readable digest).
type Report struct {
	// Meta describes the run configuration.
	Meta struct {
		Scale     int       `json:"scale"`
		Queries   int       `json:"queries"`
		Repeats   int       `json:"repeats"`
		K         int       `json:"k"`
		BatchSize int       `json:"batch_size"`
		Seed      uint64    `json:"seed"`
		Timestamp time.Time `json:"timestamp"`
	} `json:"meta"`
	Table3            []Table3JSON                `json:"table3,omitempty"`
	Table4            []Table4JSON                `json:"table4,omitempty"`
	Table5            []Table5JSON                `json:"table5,omitempty"`
	DD                []DDResult                  `json:"dd,omitempty"`
	Fig11             map[string][]float64        `json:"figure11,omitempty"`
	Fig12             map[string][]Figure12Bucket `json:"figure12,omitempty"`
	AblationDeltaFlat []AblationDeltaFlatJSON     `json:"ablation_deltaflat,omitempty"`
	AblationFusedK    []AblationFusedKJSON        `json:"ablation_fusedk,omitempty"`
	AblationShard     []AblationShardJSON         `json:"ablation_shard,omitempty"`
}

// AblationShardJSON flattens an AblationShardCell for serialization.
type AblationShardJSON struct {
	Graph            string  `json:"graph"`
	LogN             int     `json:"logn"`
	Shards           int     `json:"shards"`
	Batches          int     `json:"batches"`
	EdgesApplied     int64   `json:"edges_applied"`
	ApplySec         float64 `json:"apply_sec"`
	ApplyEdgesPerSec float64 `json:"apply_edges_per_sec"`
	Queries          int     `json:"queries"`
	DeltaQuerySec    float64 `json:"delta_query_sec"`
	DeltaQPS         float64 `json:"delta_qps"`
	FullQuerySec     float64 `json:"full_query_sec"`
	FullQPS          float64 `json:"full_qps"`
	ApplySpeedup     float64 `json:"apply_speedup"`
	QuerySpeedup     float64 `json:"query_speedup"`
	FullSpeedup      float64 `json:"full_speedup"`
	Verified         bool    `json:"verified"`
}

// AblationFusedKJSON flattens an AblationFusedKCell for serialization.
type AblationFusedKJSON struct {
	Graph           string  `json:"graph"`
	LogN            int     `json:"logn"`
	K               int     `json:"k"`
	Batches         int     `json:"batches"`
	EdgesApplied    int64   `json:"edges_applied"`
	FusedRefreshSec float64 `json:"fused_refresh_sec"`
	FusedNsPerEdge  float64 `json:"fused_ns_per_edge"`
	Hoists          int64   `json:"hoists"`
	GateSkips       int64   `json:"gate_skips"`
	BlockSweeps     int64   `json:"block_sweeps"`
}

// AblationDeltaFlatJSON flattens an AblationDeltaFlatResult for
// serialization.
type AblationDeltaFlatJSON struct {
	Graph           string  `json:"graph"`
	BatchSize       int     `json:"batch_size"`
	ChangedSources  int     `json:"changed_sources"`
	TouchedFrac     float64 `json:"touched_frac"`
	DeltaBuildSec   float64 `json:"delta_build_sec"`
	FullBuildSec    float64 `json:"full_build_sec"`
	Speedup         float64 `json:"speedup"`
	CopiedBytes     int64   `json:"copied_bytes"`
	WalkedBytes     int64   `json:"walked_bytes"`
	RecyclerHitRate float64 `json:"recycler_hit_rate"`
}

// Table3JSON flattens a Table3Cell for serialization.
type Table3JSON struct {
	Graph        string  `json:"graph"`
	LoadFrac     float64 `json:"load_frac"`
	Problem      string  `json:"problem"`
	MeanSpeedup  float64 `json:"mean_speedup"`
	StdevSpeedup float64 `json:"stdev_speedup"`
	MeanDeltaSec float64 `json:"mean_delta_sec"`
	Queries      int     `json:"queries"`
}

// Table4JSON is one activation-ratio entry.
type Table4JSON struct {
	Graph        string  `json:"graph"`
	Problem      string  `json:"problem"`
	MeanActRatio float64 `json:"mean_act_ratio"`
	StdActRatio  float64 `json:"std_act_ratio"`
}

// Table5JSON is one K-sweep entry.
type Table5JSON struct {
	K           int                `json:"k"`
	Speedup     map[string]float64 `json:"speedup"`
	StandingSec map[string]float64 `json:"standing_sec"`
}

// NewReport captures the options metadata.
func NewReport(o Options, now time.Time) *Report {
	o = o.withDefaults()
	r := &Report{}
	r.Meta.Scale = o.Scale
	r.Meta.Queries = o.Queries
	r.Meta.Repeats = o.Repeats
	r.Meta.K = o.K
	r.Meta.BatchSize = o.BatchSize
	r.Meta.Seed = o.Seed
	r.Meta.Timestamp = now
	return r
}

// AddTable3 records Table 3 cells.
func (r *Report) AddTable3(cells []Table3Cell) {
	for _, c := range cells {
		r.Table3 = append(r.Table3, Table3JSON{
			Graph: c.Graph, LoadFrac: c.Frac, Problem: c.Problem,
			MeanSpeedup: c.Agg.MeanSpeedup, StdevSpeedup: c.Agg.StdevSpeedup,
			MeanDeltaSec: c.Agg.MeanDeltaSec, Queries: c.Agg.N,
		})
	}
}

// AddTable4 records activation ratios.
func (r *Report) AddTable4(res map[string]map[string]Aggregate) {
	for p, per := range res {
		for g, agg := range per {
			r.Table4 = append(r.Table4, Table4JSON{
				Graph: g, Problem: p,
				MeanActRatio: agg.MeanActRatio, StdActRatio: agg.StdActRatio,
			})
		}
	}
}

// AddTable5 records the K sweep.
func (r *Report) AddTable5(rows []Table5Row) {
	for _, row := range rows {
		j := Table5JSON{K: row.K, Speedup: row.Speedup, StandingSec: map[string]float64{}}
		for p, d := range row.Standing {
			j.StandingSec[p] = d.Seconds()
		}
		r.Table5 = append(r.Table5, j)
	}
}

// AddAblationDeltaFlat records delta-flatten ablation points.
func (r *Report) AddAblationDeltaFlat(rs []AblationDeltaFlatResult) {
	for _, a := range rs {
		r.AblationDeltaFlat = append(r.AblationDeltaFlat, AblationDeltaFlatJSON{
			Graph: a.Graph, BatchSize: a.BatchSize,
			ChangedSources: a.ChangedSources, TouchedFrac: a.TouchedFrac,
			DeltaBuildSec: a.DeltaBuild.Seconds(), FullBuildSec: a.FullBuild.Seconds(),
			Speedup: a.Speedup, CopiedBytes: a.CopiedBytes, WalkedBytes: a.WalkedBytes,
			RecyclerHitRate: a.RecyclerHitRate,
		})
	}
}

// AddAblationFusedK records fused-kernel width-sweep points.
func (r *Report) AddAblationFusedK(cells []AblationFusedKCell) {
	for _, c := range cells {
		r.AblationFusedK = append(r.AblationFusedK, AblationFusedKJSON{
			Graph: c.Graph, LogN: c.LogN, K: c.K,
			Batches: c.Batches, EdgesApplied: c.EdgesApplied,
			FusedRefreshSec: c.FusedRefresh.Seconds(),
			FusedNsPerEdge:  c.FusedNsPerEdge,
			Hoists:          c.Hoists, GateSkips: c.GateSkips, BlockSweeps: c.BlockSweeps,
		})
	}
}

// AddAblationShard records shard-count sweep points.
func (r *Report) AddAblationShard(cells []AblationShardCell) {
	for _, c := range cells {
		r.AblationShard = append(r.AblationShard, AblationShardJSON{
			Graph: c.Graph, LogN: c.LogN, Shards: c.Shards,
			Batches: c.Batches, EdgesApplied: c.EdgesApplied,
			ApplySec:         c.ApplyTotal.Seconds(),
			ApplyEdgesPerSec: c.ApplyEdgesPerSec,
			Queries:          c.Queries,
			DeltaQuerySec:    c.QueryTotal.Seconds(),
			DeltaQPS:         c.QueriesPerSec,
			FullQuerySec:     c.FullTotal.Seconds(),
			FullQPS:          c.FullPerSec,
			ApplySpeedup:     c.ApplySpeedup,
			QuerySpeedup:     c.QuerySpeedup,
			FullSpeedup:      c.FullSpeedup,
			Verified:         c.Verified,
		})
	}
}

// WriteJSON serializes the report, indented, to w.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
