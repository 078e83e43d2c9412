package core

import (
	"tripoline/internal/graph"
	"tripoline/internal/standing"
)

// Query-distribution-aware root reselection (§5's sketched refinement):
// the system can record where user queries actually land and periodically
// re-root a problem's standing queries to serve that distribution.

// RecordQueries turns on (or off) query-source recording. While enabled,
// the source of every answered Query/QueryMany is counted in an internal
// histogram that ReselectRoots consumes.
func (s *System) RecordQueries(on bool) {
	if on && s.hist == nil {
		s.hist = standing.NewQueryHistogram()
	}
	if !on {
		s.hist = nil
	}
}

// QueryHistogramTotal reports how many query sources have been recorded.
func (s *System) QueryHistogramTotal() uint64 {
	if s.hist == nil {
		return 0
	}
	return s.hist.Total()
}

func (s *System) observe(u graph.VertexID) {
	if s.hist != nil {
		s.hist.Observe(u)
	}
}

// ReselectRoots re-roots the standing set that bounds the named problem
// using the recorded query distribution blended with topology
// (standing.WeightedRoots), then fully evaluates the new roots (see
// Evaluator.ReselectRoots). It is the periodic adaptation step for
// workloads whose query hotspots drift. Without recorded history the
// selection equals the top-degree rule.
func (s *System) ReselectRoots(problem string) error {
	return s.ev.ReselectRoots(problem, func() View { return s.G.Acquire().Flatten() }, s.hist)
}
