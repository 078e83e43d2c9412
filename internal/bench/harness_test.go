package bench

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// tiny returns options small enough for unit testing (seconds, not
// minutes) while still exercising every code path.
func tiny(buf *bytes.Buffer) Options {
	return Options{
		Queries:   4,
		Repeats:   1,
		K:         4,
		BatchSize: 2000,
		LoadFracs: []float64{0.6},
		Problems:  []string{"SSSP", "SSWP"},
		Graphs:    []string{"LJ-sim"},
		Out:       buf,
	}
}

func TestPrepare(t *testing.T) {
	s, err := Prepare("LJ-sim", 1, 0.5, 2000, 2, 1, []string{"BFS"}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if s.G.Acquire().NumEdges() == 0 {
		t.Fatal("no edges loaded")
	}
	if got := s.Sys.Enabled(); len(got) != 1 || got[0] != "BFS" {
		t.Fatalf("enabled=%v", got)
	}
	if s.applied != 1 {
		t.Fatalf("applied=%d", s.applied)
	}
}

func TestPrepareUnknownGraph(t *testing.T) {
	if _, err := Prepare("nope", 1, 0.5, 100, 1, 0, nil, 1); err == nil {
		t.Fatal("unknown graph accepted")
	}
}

func TestSampleQueriesNonTrivial(t *testing.T) {
	s, err := Prepare("LJ-sim", 1, 0.6, 2000, 2, 0, []string{"BFS"}, 7)
	if err != nil {
		t.Fatal(err)
	}
	qs := s.SampleQueries(10, 3)
	if len(qs) != 10 {
		t.Fatalf("sampled %d", len(qs))
	}
	snap := s.G.Acquire()
	seen := map[uint32]bool{}
	for _, q := range qs {
		if snap.Degree(q) <= 2 {
			t.Fatalf("trivial query source %d (deg %d)", q, snap.Degree(q))
		}
		if seen[q] {
			t.Fatalf("duplicate query source %d", q)
		}
		seen[q] = true
	}
}

func TestMeasureQueryAssertsAndMeasures(t *testing.T) {
	s, err := Prepare("LJ-sim", 1, 0.6, 2000, 4, 1, []string{"SSWP"}, 7)
	if err != nil {
		t.Fatal(err)
	}
	u := s.SampleQueries(1, 5)[0]
	m := s.MeasureQuery("SSWP", u, 1)
	if m.FullSeconds <= 0 || m.DeltaSeconds <= 0 {
		t.Fatalf("timings %+v", m)
	}
	if m.ActRatio <= 0 || m.ActRatio > 1 {
		t.Fatalf("activation ratio %v out of (0,1]", m.ActRatio)
	}
}

func TestAggregateMeasurements(t *testing.T) {
	ms := []QueryMeasurement{
		{Speedup: 2, DeltaSeconds: 0.1, ActRatio: 0.5},
		{Speedup: 4, DeltaSeconds: 0.3, ActRatio: 0.7},
	}
	a := AggregateMeasurements(ms)
	if a.MeanSpeedup != 3 || a.N != 2 {
		t.Fatalf("agg %+v", a)
	}
	if a.StdevSpeedup != 1 {
		t.Fatalf("stdev %v", a.StdevSpeedup)
	}
	if AggregateMeasurements(nil).N != 0 {
		t.Fatal("empty aggregate")
	}
}

func TestSortedSpeedups(t *testing.T) {
	sp := SortedSpeedups([]QueryMeasurement{{Speedup: 3}, {Speedup: 1}, {Speedup: 2}})
	if sp[0] != 1 || sp[1] != 2 || sp[2] != 3 {
		t.Fatalf("sorted %v", sp)
	}
}

func TestTable1And2Render(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	if !strings.Contains(buf.String(), "SSWP") {
		t.Fatal("Table 1 missing rows")
	}
	buf.Reset()
	stats := Table2(&buf, 1)
	if len(stats) != 4 {
		t.Fatalf("Table 2 rows: %d", len(stats))
	}
	if !strings.Contains(buf.String(), "TW-sim") {
		t.Fatal("Table 2 output missing graphs")
	}
}

func TestTable3SmokeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test")
	}
	var buf bytes.Buffer
	cells := Table3(tiny(&buf))
	if len(cells) != 2 { // 1 graph × 1 frac × 2 problems
		t.Fatalf("cells=%d", len(cells))
	}
	for _, c := range cells {
		if c.Agg.N != 4 {
			t.Fatalf("cell %+v", c)
		}
		if c.Problem == "SSWP" && c.Agg.MeanSpeedup < 1 {
			t.Fatalf("SSWP speedup %v < 1 — Δ evaluation not helping", c.Agg.MeanSpeedup)
		}
	}
	if !strings.Contains(buf.String(), "LJ-60") {
		t.Fatalf("output:\n%s", buf.String())
	}
}

func TestTable4Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test")
	}
	var buf bytes.Buffer
	out := Table4(tiny(&buf))
	agg := out["SSWP"]["LJ-sim"]
	if agg.N == 0 {
		t.Fatal("no measurements")
	}
	// The paper's core observation: min-max problems have tiny R_act.
	if agg.MeanActRatio > 0.5 {
		t.Fatalf("SSWP activation ratio %v unexpectedly high", agg.MeanActRatio)
	}
}

func TestTable5Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test")
	}
	var buf bytes.Buffer
	res, err := Table5(tiny(&buf), []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	if len(rows) != 2 || rows[0].K != 1 || rows[1].K != 4 {
		t.Fatalf("rows %+v", rows)
	}
	for _, r := range rows {
		for _, p := range []string{"SSSP", "SSWP"} {
			if r.Standing[p] <= 0 || r.StandingWork[p] <= 0 || r.QueryWork[p] <= 0 {
				t.Fatalf("K=%d %s: standing %v, work %d, query work %v", r.K, p, r.Standing[p], r.StandingWork[p], r.QueryWork[p])
			}
		}
	}
	// SSSP keeps every root, so four roots maintain more than one.
	if rows[1].StandingWork["SSSP"] <= rows[0].StandingWork["SSSP"] {
		t.Fatalf("SSSP standing work %d at K=1, %d at K=4", rows[0].StandingWork["SSSP"], rows[1].StandingWork["SSSP"])
	}
	for _, p := range []string{"SSSP", "SSWP"} {
		if ks := res.Picks[p]; len(ks) != len(pickRates) || !slices.Contains([]int{1, 4}, ks[0]) {
			t.Fatalf("%s picks %v", p, ks)
		}
	}
	if !strings.Contains(buf.String(), "(LJ-sim, 60% loaded)") || !strings.Contains(buf.String(), "rate = [1 4 16 64]") {
		t.Fatalf("output %q", buf.String())
	}
	o := tiny(&buf)
	o.Graphs = []string{"nope"}
	if _, err := Table5(o, []int{1}); err == nil {
		t.Fatal("unknown graph accepted")
	}
}

// TestTable5SharedSample: every K is measured on the same sources, so the
// rows differ by K alone.
func TestTable5SharedSample(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test")
	}
	var buf bytes.Buffer
	o := tiny(&buf)
	o.Problems = []string{"SSSP"}
	res, err := Table5(o, []int{1, 2, 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if len(r.Sources) != o.Queries || !slices.Equal(r.Sources, res.Rows[0].Sources) {
			t.Fatalf("K=%d measured on %v, K=%d on %v", r.K, r.Sources, res.Rows[0].K, res.Rows[0].Sources)
		}
	}
}

// TestPickK: the pick is the arg-min of the cycle cost, the same rows and
// rate give the same K, and where standing work grows with K and query
// work falls, the pick does not fall as the rate rises.
func TestPickK(t *testing.T) {
	var rows []Table5Row
	for k := 1; k <= 64; k *= 2 {
		rows = append(rows, Table5Row{K: k,
			StandingWork: map[string]int64{"SSSP": int64(50_000 * k)},
			QueryWork:    map[string]float64{"SSSP": 9_000 + 150_000/float64(k)},
		})
	}
	cost := func(r Table5Row, rate float64) float64 {
		return maintainRelaxCost*float64(r.StandingWork["SSSP"]) + rate*r.QueryWork["SSSP"]
	}
	last := 0
	for rate := 0.25; rate <= 4096; rate *= 2 {
		k := pickK(rows, "SSSP", rate)
		if again := pickK(rows, "SSSP", rate); again != k {
			t.Fatalf("rate %g: picked K=%d, then K=%d", rate, k, again)
		}
		i := slices.IndexFunc(rows, func(r Table5Row) bool { return r.K == k })
		for _, r := range rows {
			if cost(r, rate) < cost(rows[i], rate) {
				t.Fatalf("rate %g: picked K=%d at cost %g, K=%d costs %g", rate, k, cost(rows[i], rate), r.K, cost(r, rate))
			}
		}
		if k < last {
			t.Fatalf("rate %g: pick fell from K=%d to K=%d", rate, last, k)
		}
		last = k
	}
	if last == rows[0].K || pickK(rows, "SSSP", 0.25) != rows[0].K {
		t.Fatalf("picks span K=%d..%d, want the rates to reach past the first row", pickK(rows, "SSSP", 0.25), last)
	}
	// Equal costs go to the earlier row.
	tied := []Table5Row{
		{K: 4, StandingWork: map[string]int64{"SSSP": 0}, QueryWork: map[string]float64{"SSSP": 10}},
		{K: 2, StandingWork: map[string]int64{"SSSP": 0}, QueryWork: map[string]float64{"SSSP": 10}},
	}
	if k := pickK(tied, "SSSP", 1); k != 4 {
		t.Fatalf("tie picked K=%d", k)
	}
	// Meet reads are priced at meetWordCost, not at one relaxation each: a
	// wide set whose queries trade 60k relaxations for 100k meet words
	// wins at the calibrated price and loses at one relaxation per word.
	rowsAt := func(query float64) []Table5Row {
		return []Table5Row{
			{K: 1, StandingWork: map[string]int64{"SSSP": 1_000}, QueryWork: map[string]float64{"SSSP": 100_000}},
			{K: 16, StandingWork: map[string]int64{"SSSP": 2_000}, QueryWork: map[string]float64{"SSSP": query}},
		}
	}
	if k := pickK(rowsAt(40_000+100_000), "SSSP", 16); k != 1 {
		t.Fatalf("meet words at one relaxation each: picked K=%d, want 1", k)
	}
	if k := pickK(rowsAt(queryWork(40_000, 100_000)), "SSSP", 16); k != 16 {
		t.Fatalf("meet words at %.2f: picked K=%d, want 16", meetWordCost, k)
	}
}

func TestTable6Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test")
	}
	var buf bytes.Buffer
	o := tiny(&buf)
	out := Table6(o, []int{500, 1000})
	if len(out["LJ-sim"]) == 0 {
		t.Fatal("no LJ rows")
	}
	for _, per := range out["LJ-sim"] {
		for p, d := range per {
			if d <= 0 {
				t.Fatalf("problem %s: zero maintain time", p)
			}
		}
	}
}

func TestTable7and8Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test")
	}
	var buf bytes.Buffer
	o := tiny(&buf)
	o.Queries = 2
	results := Table7and8(o)
	// 2 graphs × 2 fracs × 3 problems
	if len(results) != 12 {
		t.Fatalf("results=%d", len(results))
	}
	for _, r := range results {
		if r.PlainRed == 0 {
			t.Fatalf("baseline recorded no reduce ops: %+v", r)
		}
		// TriRed may legitimately be zero: for min-max problems the Δ
		// bound is often fully converged, so the filter drops every
		// candidate (the paper's near-total activation elimination).
		if r.TriRed > r.PlainRed {
			t.Fatalf("filter increased reduce ops: %+v", r)
		}
	}
	if !strings.Contains(buf.String(), "DD-SA-Tri") {
		t.Fatal("table text missing")
	}
}

func TestFigure11Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test")
	}
	var buf bytes.Buffer
	out := Figure11(tiny(&buf))
	sp := out["SSWP"]
	if len(sp) != 4 {
		t.Fatalf("series length %d", len(sp))
	}
	for i := 1; i < len(sp); i++ {
		if sp[i] < sp[i-1] {
			t.Fatal("series not sorted")
		}
	}
}

func TestFigure12Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test")
	}
	var buf bytes.Buffer
	out := Figure12(tiny(&buf))
	if len(out["SSSP"]) == 0 {
		t.Fatal("no buckets")
	}
}
