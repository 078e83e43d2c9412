package core

import (
	"fmt"

	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/standing"
	"tripoline/internal/streamgraph"
)

// Query-distribution-aware root reselection (§5's sketched refinement):
// the system can record where user queries actually land and periodically
// re-root a problem's standing queries to serve that distribution.

// RecordQueries turns on (or off) query-source recording. While enabled,
// every Query/QueryMany source is counted in an internal histogram that
// ReselectRoots consumes.
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

// reselecter is implemented by handlers whose standing roots can be
// re-chosen at runtime.
type reselecter interface {
	reselect(g *streamgraph.Flat, roots []graph.VertexID) engine.Stats
}

// ReselectRoots re-roots the named problem's standing queries using the
// recorded query distribution blended with topology
// (standing.WeightedRoots), then fully evaluates the new roots. It is
// the periodic adaptation step for workloads whose query hotspots drift.
// Without recorded history the selection equals the top-degree rule.
func (s *System) ReselectRoots(problem string) error {
	h, err := s.lookup(problem)
	if err != nil {
		return err
	}
	r, ok := h.(reselecter)
	if !ok {
		return fmt.Errorf("core: problem %q does not use standing roots", problem)
	}
	snap := s.G.Acquire()
	roots := standing.WeightedRoots(snap, s.hist, s.K)
	// Re-rooting rewrites the standing arrays wholesale; exclude readers
	// exactly like batch maintenance does.
	s.stMu.Lock()
	defer s.stMu.Unlock()
	r.reselect(snap.Flatten(), roots)
	return nil
}

func (h *simpleHandler) reselect(g *streamgraph.Flat, roots []graph.VertexID) engine.Stats {
	h.mgr.Roots = roots
	return h.mgr.Rebuild(g)
}

func (h *radiiHandler) reselect(g *streamgraph.Flat, roots []graph.VertexID) engine.Stats {
	h.mgr.Roots = roots
	return h.mgr.Rebuild(g)
}

func (h *ssnspHandler) reselect(g *streamgraph.Flat, roots []graph.VertexID) engine.Stats {
	h.mgr.Roots = roots
	stats := h.mgr.Rebuild(g)
	h.recount(g)
	return stats
}
