package tuner

import (
	"strings"
	"testing"

	"tripoline/internal/gen"
)

func testConfig(t *testing.T, qpb float64, ks []int) Config {
	t.Helper()
	cfg := gen.Config{Name: "tune", LogN: 11, AvgDegree: 8, Directed: false, Seed: 5}
	edges := gen.RMAT(cfg)
	stream := gen.MakeStream(cfg.N(), edges, false, 0.7, 1500, 5)
	return Config{
		N:               cfg.N(),
		Directed:        false,
		Initial:         stream.Initial,
		Batches:         stream.Batches,
		Problem:         "SSSP",
		QueriesPerBatch: qpb,
		SampleQueries:   4,
		Ks:              ks,
		Seed:            9,
	}
}

func TestTuneKPicksACandidate(t *testing.T) {
	res, err := TuneK(testConfig(t, 4, []int{1, 4, 16}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Costs) != 3 {
		t.Fatalf("costs=%d", len(res.Costs))
	}
	valid := map[int]bool{1: true, 4: true, 16: true}
	if !valid[res.Best] {
		t.Fatalf("best=%d not a candidate", res.Best)
	}
	for _, c := range res.Costs {
		if c.Standing <= 0 || c.Query <= 0 || c.Total < c.Standing {
			t.Fatalf("implausible cost %+v", c)
		}
	}
	if !strings.Contains(res.String(), "auto-tuned K") {
		t.Fatal("String() missing summary")
	}
}

func TestTuneKBestMinimizesTotal(t *testing.T) {
	res, err := TuneK(testConfig(t, 2, []int{1, 8}))
	if err != nil {
		t.Fatal(err)
	}
	var best Cost
	for _, c := range res.Costs {
		if c.K == res.Best {
			best = c
		}
	}
	for _, c := range res.Costs {
		if c.Total < best.Total {
			t.Fatalf("K=%d has lower total than chosen K=%d", c.K, res.Best)
		}
	}
}

func TestTuneKStandingCostGrowsWithK(t *testing.T) {
	// Standing maintenance must cost more at K=64 than K=1 (sub-linear
	// growth via batch mode, but growth nonetheless). Compared on counted
	// work, which machine load cannot reorder; the wall clocks behind
	// Cost.Standing flake when packages test in parallel.
	res, err := TuneK(testConfig(t, 1, []int{1, 64}))
	if err != nil {
		t.Fatal(err)
	}
	var k1, k64 Cost
	for _, c := range res.Costs {
		if c.K == 1 {
			k1 = c
		}
		if c.K == 64 {
			k64 = c
		}
	}
	w1, w64 := k1.StandingWork, k64.StandingWork
	if w1.Relaxations <= 0 || w64.Relaxations <= w1.Relaxations || w64.Activations <= w1.Activations {
		t.Fatalf("standing work did not grow: K=1 %+v vs K=64 %+v", w1, w64)
	}
}

func TestTuneKErrors(t *testing.T) {
	if _, err := TuneK(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	cfg := testConfig(t, 1, []int{1})
	cfg.Problem = "NotAProblem"
	if _, err := TuneK(cfg); err == nil {
		t.Fatal("unknown problem accepted")
	}
}

func TestTuneKDefaults(t *testing.T) {
	cfg := testConfig(t, 0, nil) // defaults: 7 candidate Ks, qpb=1
	cfg.SampleQueries = 2
	res, err := TuneK(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Costs) != 7 {
		t.Fatalf("default candidates: %d", len(res.Costs))
	}
}
