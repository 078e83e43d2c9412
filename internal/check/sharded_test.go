package check

import (
	"context"
	"testing"
)

// TestShardedCheckerClean runs the sharded differential checker over a
// batch of schedules: replaying through 1-shard and 4-shard routers must
// observe identical results at every global version.
func TestShardedCheckerClean(t *testing.T) {
	sum := RunShardedMany(context.Background(), 20, 77, 4, func(i int, v Verdict) {
		if v.Diverged {
			t.Errorf("schedule %d (seed %d) diverged: %v", i, v.Seed, v.Reasons)
		}
	})
	if sum.Divergences != 0 {
		t.Fatalf("%d divergences", sum.Divergences)
	}
	if sum.Queries == 0 {
		t.Fatal("no queries observed")
	}
}

// TestShardedCheckerCatchesDivergence is the self-test: a deliberately
// desynchronized pair of replays must be flagged. We replay two
// DIFFERENT schedules and diff them — if compareObs can't see that, it
// can't see a router bug either.
func TestShardedCheckerCatchesDivergence(t *testing.T) {
	a := Generate(Params{Seed: 1})
	b := Generate(Params{Seed: 2})
	ra := replaySharded(context.Background(), a, newSharded(a.N, 1))
	rb := replaySharded(context.Background(), b, newSharded(b.N, 4))
	if reasons := compareObs(ra, rb, "selftest", cmpCfg{}); len(reasons) == 0 {
		t.Fatal("comparing replays of different schedules reported no divergence")
	}
}
