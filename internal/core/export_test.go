package core

import (
	"context"

	"tripoline/internal/graph"
	"tripoline/internal/standing"
	"tripoline/internal/streamgraph"
)

// NewEvaluator exposes the evaluator's constructor, for its K clamping.
var NewEvaluator = newEvaluator

// K exposes the evaluator's clamped standing-query count.
func (ev *evaluator) K() int { return ev.k }

// StandingSets exposes the system's standing sets, in creation order, so
// tests can assert on the managers' own counters.
func (s *System) StandingSets() []*standing.Manager { return s.ev.sets }

// SlotColumn is one subscribed lane as its standing set holds it: the
// problem of the set, the lane's id and source, the version the set stands
// on and a copy of the lane's values.
type SlotColumn struct {
	Problem string
	Lane    int
	Source  graph.VertexID
	Version uint64
	Values  []uint64
}

// SubscribedSlots returns every subscribed lane, in standing-set and lane
// order, read through the sets under the shared lock (lock order mu →
// subMu).
func (s *System) SubscribedSlots() []SlotColumn {
	ev := s.ev
	ev.mu.RLock()
	defer ev.mu.RUnlock()
	ev.subMu.Lock()
	defer ev.subMu.Unlock()
	var out []SlotColumn
	for _, set := range ev.sets {
		for _, l := range ev.lanes[set] {
			if l != nil {
				out = append(out, SlotColumn{set.Problem.Name(), l.id, l.source, set.LastVersion, set.LaneColumns([]int{l.id})[0]})
			}
		}
	}
	return out
}

// SubscriptionCounts returns a copy of an SSNSP subscription's counts at
// the latest version.
func (s *System) SubscriptionCounts(sub *Subscription) []uint64 {
	s.ev.subMu.Lock()
	defer s.ev.subMu.Unlock()
	return append([]uint64(nil), sub.counts...)
}

// SubscribeAcross subscribes to (problem, u) with mutate run once, right
// after the snapshot is evaluated and before it is installed, as a writer
// racing the subscribe would publish. It reports how many snapshot
// evaluations and catch-ups the subscribe ran.
func (s *System) SubscribeAcross(problem string, u graph.VertexID, mutate func()) (sub *Subscription, evaluations, catchUps int, err error) {
	s.ev.evaluated = func(caughtUp bool) {
		if caughtUp {
			catchUps++
		} else if evaluations++; evaluations == 1 {
			mutate()
		}
	}
	defer func() { s.ev.evaluated = nil }()
	sub, err = s.SubscribeCtx(context.Background(), problem, u, DefaultSubscriptionBuffer)
	return sub, evaluations, catchUps, err
}

// OnSubscribeEvaluated makes every subscribe call f after each snapshot
// evaluation or catch-up, outside the lock and before its install. Set it
// before any subscribe runs.
func (s *System) OnSubscribeEvaluated(f func(caughtUp bool)) { s.ev.evaluated = f }

// at returns the snapshot published for the given version, or false when
// it was never published or already fell out of the ring.
func (b *barrier) at(version uint64) (*streamgraph.Snapshot, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	for _, snap := range b.snaps {
		if snap.Version() == version {
			return snap, true
		}
	}
	return nil, false
}

// Cache returns the system's result cache (nil when disabled).
func (s *System) Cache() *ResultCache { return s.cache }

// SetBudget replaces the cache's resident-byte budget, so tests can make
// it bind on small graphs.
func (c *ResultCache) SetBudget(bytes int64) { c.budget = bytes }
