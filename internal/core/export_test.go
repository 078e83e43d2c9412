package core

import "tripoline/internal/standing"

// NewEvaluator exposes the evaluator's constructor, for its K clamping.
var NewEvaluator = newEvaluator

// K exposes the evaluator's clamped standing-query count.
func (ev *evaluator) K() int { return ev.k }

// StandingSets exposes the system's standing sets, in creation order, so
// tests can assert on the managers' own counters.
func (s *System) StandingSets() []*standing.Manager { return s.ev.sets }

// QueryHistogramTotal reports how many query sources the system's
// evaluator has recorded.
func (s *System) QueryHistogramTotal() uint64 {
	if s.ev.hist == nil {
		return 0
	}
	return s.ev.hist.Total()
}
