package check

import (
	"context"
	"math"
	"testing"

	"tripoline/internal/core"
	"tripoline/internal/graph"
	"tripoline/internal/streamgraph"
)

// TestServingSchedules runs the serving checker over a batch of
// generated schedules: zero divergences, and the run must actually have
// exercised the serving surface (cache hits, frames, subscriber churn,
// frames dropped by lossy subscribers) — a vacuously green checker would
// be worse than none.
func TestServingSchedules(t *testing.T) {
	n := 30
	if testing.Short() {
		n = 8
	}
	t.Run("S=1", func(t *testing.T) {
		sum := RunMany(context.Background(), n, 1, Options{Serving: true}, func(i int, v Verdict) {
			if v.Diverged {
				t.Errorf("schedule %d (seed %d) diverged: %v", i, v.Seed, v.Reasons)
			}
		})
		if sum.Divergences != 0 {
			t.Fatalf("%d divergences: failing seeds %v", sum.Divergences, sum.FailingSeeds)
		}
		if sum.CacheHits == 0 {
			t.Fatal("serving run exercised no cache hits")
		}
		if sum.Frames == 0 || sum.Subscriptions == 0 {
			t.Fatalf("serving run pushed %d frames over %d subscriptions", sum.Frames, sum.Subscriptions)
		}
		if sum.FramesDropped == 0 {
			t.Fatal("serving run dropped no frame: the lossy subscribers were never lossy")
		}
	})
}

// TestServingDetectsCorruption is the oracle's self-test, one case per
// checked problem: a System's correct answer passes verifyAt, the same
// answer with one entry changed is flagged, and so is an answer at a
// version the oracle never recorded.
func TestServingDetectsCorruption(t *testing.T) {
	o := newOracleSet(6, false)
	sys := checked(core.NewSystem(streamgraph.New(6, false), replayK), Problems)
	o.apply(context.Background(), sys, "setup", false, []graph.Edge{
		{Src: 0, Dst: 1, W: 3}, {Src: 1, Dst: 2, W: 1}, {Src: 2, Dst: 3, W: 5}, {Src: 0, Dst: 3, W: 2},
	})
	if len(o.reasons) != 0 {
		t.Fatalf("setup diverged: %v", o.reasons)
	}
	for _, p := range Problems {
		t.Run(p, func(t *testing.T) {
			res, err := sys.Query(p, 0)
			if err != nil {
				t.Fatal(err)
			}
			if msg := o.verifyAt(p, 0, res.Version, res.Values, res.Counts); msg != "" {
				t.Fatalf("correct answer flagged: %s", msg)
			}
			bad := append([]uint64(nil), res.Values...)
			if p == "PageRank" {
				bad[2] = math.Float64bits(math.Float64frombits(bad[2]) + 1e-3)
			} else {
				bad[2]++
			}
			if msg := o.verifyAt(p, 0, res.Version, bad, res.Counts); msg == "" {
				t.Fatal("changed entry not flagged")
			}
			if msg := o.verifyAt(p, 0, res.Version+999, res.Values, res.Counts); msg == "" {
				t.Fatal("untracked version not flagged")
			}
		})
	}
}
