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
	Table3 []Table3JSON `json:"table3,omitempty"`
	Table4 []Table4JSON `json:"table4,omitempty"`
	Table5 []Table5JSON `json:"table5,omitempty"`
	// Table5Picks lists, per problem, the K picked at each query rate.
	Table5Picks map[string][]Table5Pick     `json:"table5_picks,omitempty"`
	DD          []DDResult                  `json:"dd,omitempty"`
	Fig11       map[string][]float64        `json:"figure11,omitempty"`
	Fig12       map[string][]Figure12Bucket `json:"figure12,omitempty"`
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
	K            int                `json:"k"`
	Speedup      map[string]float64 `json:"speedup"`
	StandingSec  map[string]float64 `json:"standing_sec"`
	StandingWork map[string]int64   `json:"standing_work"`
	QueryWork    map[string]float64 `json:"query_work"`
}

// Table5Pick is the K Table 5 picks at one query rate.
type Table5Pick struct {
	Rate float64 `json:"rate"`
	K    int     `json:"k"`
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

// AddTable5 records the K sweep and its picks.
func (r *Report) AddTable5(res Table5Result) {
	for _, row := range res.Rows {
		j := Table5JSON{K: row.K, Speedup: row.Speedup, StandingSec: map[string]float64{},
			StandingWork: row.StandingWork, QueryWork: row.QueryWork}
		for p, d := range row.Standing {
			j.StandingSec[p] = d.Seconds()
		}
		r.Table5 = append(r.Table5, j)
	}
	r.Table5Picks = map[string][]Table5Pick{}
	for p, ks := range res.Picks {
		for i, k := range ks {
			r.Table5Picks[p] = append(r.Table5Picks[p], Table5Pick{Rate: pickRates[i], K: k})
		}
	}
}

// WriteJSON serializes the report, indented, to w.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
