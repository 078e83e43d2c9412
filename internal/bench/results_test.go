package bench

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestReportJSONRoundTrip(t *testing.T) {
	o := Options{Queries: 4, K: 2, Seed: 7}
	r := NewReport(o, time.Unix(1000, 0).UTC())
	r.AddTable3([]Table3Cell{{
		Graph: "LJ-sim", Frac: 0.6, Problem: "SSWP",
		Agg: Aggregate{MeanSpeedup: 12.5, StdevSpeedup: 2.5, MeanDeltaSec: 0.01, N: 4},
	}})
	r.AddTable4(map[string]map[string]Aggregate{
		"SSWP": {"LJ-sim": {MeanActRatio: 0.001, StdActRatio: 0.0005}},
	})
	r.AddTable5(Table5Result{
		Rows: []Table5Row{{
			K:            4,
			Speedup:      map[string]float64{"SSSP": 1.7},
			Standing:     map[string]time.Duration{"SSSP": 150 * time.Millisecond},
			StandingWork: map[string]int64{"SSSP": 46_000},
			QueryWork:    map[string]float64{"SSSP": 9_600.5},
		}},
		Picks: map[string][]int{"SSSP": {4, 4, 4, 4}},
	})
	r.DD = []DDResult{{Graph: "LJ-sim", Frac: 1.0, Problem: "SSSP", PlainRed: 100, TriRed: 40, Reduction: 2.5}}
	r.Fig11 = map[string][]float64{"SSWP": {1, 2, 3}}
	r.Fig12 = map[string][]Figure12Bucket{"SSSP": {{PropUR: 3, MeanSpeedup: 4.5, N: 2}}}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Meta.Queries != 4 || back.Meta.K != 2 || back.Meta.Seed != 7 {
		t.Fatalf("meta %+v", back.Meta)
	}
	if len(back.Table3) != 1 || back.Table3[0].MeanSpeedup != 12.5 {
		t.Fatalf("table3 %+v", back.Table3)
	}
	if len(back.Table4) != 1 || back.Table4[0].MeanActRatio != 0.001 {
		t.Fatalf("table4 %+v", back.Table4)
	}
	if len(back.Table5) != 1 || back.Table5[0].StandingSec["SSSP"] != 0.15 ||
		back.Table5[0].StandingWork["SSSP"] != 46_000 || back.Table5[0].QueryWork["SSSP"] != 9_600.5 {
		t.Fatalf("table5 %+v", back.Table5)
	}
	if picks := back.Table5Picks["SSSP"]; len(picks) != len(pickRates) || picks[3] != (Table5Pick{Rate: 64, K: 4}) {
		t.Fatalf("table5 picks %+v", back.Table5Picks)
	}
	if len(back.DD) != 1 || back.DD[0].Reduction != 2.5 {
		t.Fatalf("dd %+v", back.DD)
	}
	if len(back.Fig11["SSWP"]) != 3 {
		t.Fatalf("fig11 %+v", back.Fig11)
	}
	if len(back.Fig12["SSSP"]) != 1 || back.Fig12["SSSP"][0].MeanSpeedup != 4.5 {
		t.Fatalf("fig12 %+v", back.Fig12)
	}
}

func TestNewReportAppliesDefaults(t *testing.T) {
	r := NewReport(Options{}, time.Unix(0, 0))
	if r.Meta.Queries == 0 || r.Meta.K == 0 || r.Meta.BatchSize == 0 {
		t.Fatalf("defaults not applied: %+v", r.Meta)
	}
}
