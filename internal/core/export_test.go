package core

import "tripoline/internal/standing"

// StandingSets exposes the system's standing sets, in creation order, so
// tests can assert on the managers' own counters.
func (s *System) StandingSets() []*standing.Manager { return s.ev.StandingSets() }

// K exposes the evaluator's clamped standing-query count.
func (ev *Evaluator) K() int { return ev.k }

// QueryHistogramTotal reports how many query sources the system's
// evaluator has recorded.
func (s *System) QueryHistogramTotal() uint64 {
	if s.ev.hist == nil {
		return 0
	}
	return s.ev.hist.Total()
}
