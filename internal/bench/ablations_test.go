package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestAblationBatchMode(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation smoke test")
	}
	var buf bytes.Buffer
	res := AblationBatchMode(&buf, "LJ-sim", 1, 8, 2000, 5)
	if res.BatchedTime <= 0 || res.SeparateTime <= 0 {
		t.Fatalf("times %+v", res)
	}
	// The §4.5 claim: batch mode is cheaper than K separate evaluations.
	if res.BatchedSpeedup < 1 {
		t.Logf("warning: batch mode slower on this run: %.2fx", res.BatchedSpeedup)
	}
	if !strings.Contains(buf.String(), "batch mode") {
		t.Fatal("no output")
	}
}

func TestAblationSelection(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation smoke test")
	}
	var buf bytes.Buffer
	res := AblationSelection(&buf, "LJ-sim", "SSSP", 1, 8, 6, 5)
	if res.BestSpeedup <= 0 || res.WorstSpeedup <= 0 {
		t.Fatalf("speedups %+v", res)
	}
	// Eq. 15's pick must not lose to the anti-heuristic on average.
	if res.BestSpeedup < res.WorstSpeedup*0.8 {
		t.Fatalf("best-root selection (%.2fx) much worse than worst-root (%.2fx)",
			res.BestSpeedup, res.WorstSpeedup)
	}
}

func TestAblationDualModel(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation smoke test")
	}
	var buf bytes.Buffer
	res := AblationDualModel(&buf, "LJ-sim", 1, 5)
	if res.PullTime <= 0 || res.TransposeTime <= 0 || res.ExtraArcs == 0 {
		t.Fatalf("result %+v", res)
	}
}

func TestAblationDualModelRejectsUndirected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("undirected graph accepted")
		}
	}()
	AblationDualModel(nil, "OR-sim", 1, 1)
}
