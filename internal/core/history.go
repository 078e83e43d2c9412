package core

import (
	"context"
	"fmt"

	"tripoline/internal/graph"
	"tripoline/internal/streamgraph"
)

// Time-travel queries: with history enabled, the system retains a window
// of past snapshots (purely functional, so retention is nearly free) and
// answers queries against any retained version — the evolving-graph
// analysis scenario of Chronos/GraphTau, §7 of the paper.
//
// Historical queries are answered with a full evaluation: the standing
// query state tracks only the latest version, so Δ-based initialization
// is not valid against older snapshots (its bounds could be too good —
// edges present now may be absent then).

// EnableHistory starts retaining up to capacity snapshots. The current
// snapshot is recorded immediately and after every subsequent
// ApplyBatch/ApplyDeletions.
func (s *System) EnableHistory(capacity int) {
	s.history = streamgraph.NewHistory(capacity)
	s.history.Record(s.G)
}

// HistoryVersions lists the retained snapshot versions in ascending
// order (nil when history is disabled).
func (s *System) HistoryVersions() []uint64 {
	if s.history == nil {
		return nil
	}
	return s.history.Versions()
}

// HistoryAt returns the retained snapshot with the given version, or
// false when history is disabled or the version fell out of the window.
// Callers that need the exact past graph (the differential checker's
// oracle does) materialize a CSR from it.
func (s *System) HistoryAt(version uint64) (*streamgraph.Snapshot, bool) {
	if s.history == nil {
		return nil, false
	}
	return s.history.AtVersion(version)
}

// QueryAtCtx answers a user query against the retained snapshot with
// the given version, via full evaluation (Evaluator.QueryFull) under
// cooperative cancellation — historical queries are the most expensive
// kind, so deadlines matter most here. The source must be in range for
// the queried version, which may have fewer vertices than the latest.
// The latest retained version still owns its mirror; an older
// one's was retired when the next version's was built, so the query
// builds, evaluates over and frees a mirror of its own (PinMirror): a
// one-off O(V+E) build plus a flat run costs less than the same run over
// the tree did for the weighted problems, somewhat more for BFS
// (EXPERIMENTS.md "One adjacency path").
func (s *System) QueryAtCtx(ctx context.Context, version uint64, problem string, u graph.VertexID) (*QueryResult, error) {
	if s.history == nil {
		return nil, fmt.Errorf("core: history not enabled: %w", ErrNoSuchVersion)
	}
	snap, ok := s.history.AtVersion(version)
	if !ok {
		return nil, fmt.Errorf("core: version %d not retained (have %v): %w",
			version, s.history.Versions(), ErrNoSuchVersion)
	}
	view, release := PinMirror(snap)
	defer release()
	return s.ev.QueryFull(ctx, problem, u, view)
}

// recordHistory is called after every graph mutation.
func (s *System) recordHistory() {
	if s.history != nil {
		s.history.Record(s.G)
	}
}
