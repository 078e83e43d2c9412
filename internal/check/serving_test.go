package check

import (
	"context"
	"fmt"
	"testing"

	"tripoline/internal/graph"
	"tripoline/internal/streamgraph"
)

// TestServingSchedules runs the serving checker over a batch of
// generated schedules, through a core.System and through a 4-shard
// router: zero divergences, and the run must actually have exercised the
// serving surface (cache hits, frames, subscriber churn) — a vacuously
// green checker would be worse than none.
func TestServingSchedules(t *testing.T) {
	n := 30
	if testing.Short() {
		n = 8
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("S=%d", shards), func(t *testing.T) {
			sum := RunServingMany(context.Background(), n, 1, shards, func(i int, v ServingVerdict) {
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
		})
	}
}

// TestServingDetectsCorruption is the serving checker's self-test: the
// oracle comparison it leans on must actually flag a wrong value at the
// reported version.
func TestServingDetectsCorruption(t *testing.T) {
	g := streamgraph.New(4, false)
	g.InsertEdges([]graph.Edge{{Src: 0, Dst: 1, W: 1}, {Src: 1, Dst: 2, W: 1}})
	o := newOracleSet(g)
	o.record()
	ver := g.Acquire().Version()
	good := append([]uint64(nil), o.ccAt(ver)...)
	if msg := o.verifyAt("CC", 0, ver, good, nil); msg != "" {
		t.Fatalf("correct labels flagged: %s", msg)
	}
	bad := append([]uint64(nil), good...)
	bad[2]++
	if msg := o.verifyAt("CC", 0, ver, bad, nil); msg == "" {
		t.Fatal("tampered label not flagged")
	}
	if msg := o.verifyAt("CC", 0, ver+999, good, nil); msg == "" {
		t.Fatal("untracked version not flagged")
	}
}
