package core

import (
	"tripoline/internal/graph"
	"tripoline/internal/standing"
)

// Query-distribution-aware root reselection (§5's sketched refinement):
// the evaluator can record where user queries actually land and
// periodically re-root a problem's standing queries to serve that
// distribution.

// RecordQueries turns on (or off) query-source recording. While enabled,
// the source of every answered Query/QueryMany is counted in the histogram
// ReselectRoots consumes. It is setup-phase API, like Enable.
func (ev *evaluator) RecordQueries(on bool) {
	if on && ev.hist == nil {
		ev.hist = standing.NewQueryHistogram()
	}
	if !on {
		ev.hist = nil
	}
}

func (ev *evaluator) observe(u graph.VertexID) {
	if ev.hist != nil {
		ev.hist.Observe(u)
	}
}

// RecordQueries turns query-source recording on or off (see
// evaluator.RecordQueries).
func (s *System) RecordQueries(on bool) { s.ev.RecordQueries(on) }

// ReselectRoots re-roots the standing set that bounds the named problem
// using the recorded query distribution blended with topology
// (standing.WeightedRoots), then fully evaluates the new roots (see
// evaluator.ReselectRoots). It is the periodic adaptation step for
// workloads whose query hotspots drift. Without recorded history the
// selection equals the top-degree rule. Re-rooting rewrites the standing
// arrays wholesale over the writer's view, so it runs under the apply
// token, like a batch.
func (s *System) ReselectRoots(problem string) error {
	s.tok <- struct{}{}
	defer s.release()
	return s.ev.ReselectRoots(problem, s.current())
}
