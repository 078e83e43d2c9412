package check

import (
	"context"
	"fmt"

	"tripoline/internal/dd"
	"tripoline/internal/graph"
)

// Shrink dd-minimizes a diverging schedule: first at op granularity
// (which sub-sequence of ops still diverges), then within each surviving
// batch at edge granularity. The result still diverges under the same
// Options and is what gets encoded into testdata/repros. Schedules that
// do not diverge are returned unchanged.
func Shrink(ctx context.Context, s *Schedule, opts Options) *Schedule {
	fails := func(ops []Op) bool {
		return CheckSchedule(ctx, &Schedule{Seed: s.Seed, N: s.N, Directed: s.Directed, Ops: ops}, opts).Diverged
	}
	ops := append([]Op(nil), s.Ops...)
	if !fails(ops) {
		return s
	}
	ops = dd.Minimize(ops, fails)
	for i := range ops {
		if len(ops[i].Edges) < 2 {
			continue
		}
		ops[i].Edges = dd.Minimize(ops[i].Edges, func(edges []graph.Edge) bool {
			trial := append([]Op(nil), ops...)
			trial[i] = ops[i]
			trial[i].Edges = edges
			return fails(trial)
		})
	}
	return &Schedule{Seed: s.Seed, N: s.N, Directed: s.Directed, Ops: ops}
}

// ShrinkCoverage minimizes a schedule while preserving its set of op
// kinds. It distills a passing schedule into a compact regression-corpus
// entry: the repro corpus wants small schedules that still walk every
// code path the original did, and "fails" here simply means "still
// covers the same op kinds".
func ShrinkCoverage(s *Schedule) *Schedule {
	want := fmt.Sprint(kindsPresent(s.Ops))
	ops := dd.Minimize(s.Ops, func(ops []Op) bool {
		return fmt.Sprint(kindsPresent(ops)) == want
	})
	return &Schedule{Seed: s.Seed, N: s.N, Directed: s.Directed, Ops: ops}
}
