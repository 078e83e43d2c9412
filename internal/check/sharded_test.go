package check

import (
	"context"
	"testing"
)

// TestShardedCheckerClean runs the checker with the fifth, 4-store
// replay over a batch of schedules: no divergence from the oracle or from
// the base replay. And the 4-store replay's answers must actually be
// verified against the oracle — beyond what the one-store replays of the
// same schedule verify.
func TestShardedCheckerClean(t *testing.T) {
	ctx := context.Background()
	sum := RunMany(ctx, 20, 77, Options{Shards: 4}, func(i int, v Verdict) {
		if v.Diverged {
			t.Errorf("schedule %d (seed %d) diverged: %v", i, v.Seed, v.Reasons)
		}
	})
	if sum.Divergences != 0 {
		t.Fatalf("%d divergences", sum.Divergences)
	}
	s := Generate(Params{Seed: 77})
	plain, sharded := CheckSchedule(ctx, s, Options{}), CheckSchedule(ctx, s, Options{Shards: 4})
	if extra := sharded.Verified - plain.Verified; extra < sharded.Queries/2 {
		t.Fatalf("the 4-store replay verified %d answers against the oracle over %d base queries", extra, sharded.Queries)
	}
}

// TestShardedCheckerCatchesDivergence is the self-test: a deliberately
// desynchronized pair of replays must be flagged. We replay two
// DIFFERENT schedules, one through one store and one through four, and
// diff them — if compareObs can't see that, it can't see a store-split
// bug either.
func TestShardedCheckerCatchesDivergence(t *testing.T) {
	a := Generate(Params{Seed: 1})
	b := Generate(Params{Seed: 2})
	ra := replay(context.Background(), a, variant{name: "base"})
	rb := replay(context.Background(), b, variant{name: "S=4", shards: 4})
	if reasons := compareObs(ra, rb); len(reasons) == 0 {
		t.Fatal("comparing replays of different schedules reported no divergence")
	}
}
