package core

import (
	"context"
	"slices"
	"sync"
	"time"

	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/metrics"
	"tripoline/internal/streamgraph"
)

// The writer: one path for every mutation at every store count. It admits
// on the apply token, routes the batch's arcs to the stores that own their
// tails, applies the sub-batches concurrently, builds the barrier entry,
// then — inside the evaluator's exclusive window — publishes the entry,
// maintains the standing state and the subscriptions over it, and retires
// the mirrors it superseded.

// store is one of a System's graph stores: a streaming graph and the
// snapshot the writer last produced on it. The token holder is its only
// mutator.
type store struct {
	g   *streamgraph.Graph
	cur *streamgraph.Snapshot
}

// apply applies one sub-batch, which publishes the new version with its
// mirror patched from the current version's, and returns the snapshot it
// superseded, whose mirror the writer retires only once the new entry is
// published.
func (st *store) apply(part []graph.Edge, deletions bool) (parent *streamgraph.Snapshot, changed []graph.VertexID) {
	parent = st.cur
	if deletions {
		st.cur, changed = st.g.DeleteEdges(part)
	} else {
		st.cur, changed = st.g.InsertEdges(part)
	}
	return parent, changed
}

// ApplyBatchCtx inserts an edge batch and incrementally re-stabilizes
// every enabled standing query, advancing the version by one. Admission is
// context-based: a context that is done before the batch is admitted —
// already, or while it waits for the writer before it — rejects the batch
// before any mutation with an ErrCanceled-wrapping error. Once admitted
// the batch always runs to completion, standing maintenance included —
// honoring cancellation mid-maintenance would leave some problems'
// standing state stale relative to the new version and silently shrink
// every later query's Δ warm start, so the update path trades cancellation
// granularity for an invariant: standing state is always converged for
// the version it is paired with.
func (s *System) ApplyBatchCtx(ctx context.Context, batch []graph.Edge) (BatchReport, error) {
	if err := s.admit(ctx); err != nil {
		return BatchReport{}, err
	}
	defer s.release()
	return s.apply(batch, false), nil
}

// ApplyDeletionsCtx removes a batch of edges and recovers every enabled
// standing query, with ApplyBatchCtx's admission semantics.
//
// Deletions break the monotonicity that incremental resumption depends
// on (a converged distance may now be *too good*). Standing sets recover
// with witness-based trimming (package standing: reset and re-derive only
// values that depended on a deleted arc — the KickStarter idea the paper
// cites); the maintained whole-graph answers re-evaluate from scratch,
// which is always sound.
func (s *System) ApplyDeletionsCtx(ctx context.Context, batch []graph.Edge) (BatchReport, error) {
	if err := s.admit(ctx); err != nil {
		return BatchReport{}, err
	}
	defer s.release()
	return s.apply(batch, true), nil
}

// admit takes the apply token, honoring ctx while waiting. A context
// that is already done always rejects, even when the token is free.
func (s *System) admit(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return &engine.CanceledError{Cause: err}
	}
	select {
	case s.tok <- struct{}{}:
		return nil
	case <-ctx.Done():
		return &engine.CanceledError{Cause: ctx.Err()}
	}
}

func (s *System) release() { <-s.tok }

// apply runs one admitted mutation. Caller holds the apply token.
func (s *System) apply(batch []graph.Edge, deletions bool) BatchReport {
	prev := s.bar.latest()
	var resolved []graph.Edge
	if deletions {
		resolved = resolveDeletionWeights(prev, batch)
	}
	parts := s.split(s.arcs(batch))
	// Indexed slice writes + WaitGroup instead of a result channel: each
	// goroutine owns its store's slots, so the join cannot park on a
	// channel operation (store applies are not cancelable once admitted).
	parents := make([]*streamgraph.Snapshot, len(s.stores))
	changes := make([][]graph.VertexID, len(s.stores))
	var wg sync.WaitGroup
	for i, part := range parts {
		if part == nil {
			// A store the batch does not reach keeps its snapshot and its
			// version-vector slot: stores advance at different rates, and
			// the entry records the skew.
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			parents[i], changes[i] = s.stores[i].apply(part, deletions)
		}()
	}
	wg.Wait()

	start := time.Now()
	vec := slices.Clone(prev.vec)
	snaps := slices.Clone(prev.snaps)
	applied := make([]bool, len(s.stores))
	var changed []graph.VertexID
	for i, parent := range parents {
		if parent == nil {
			continue
		}
		applied[i], snaps[i] = true, s.stores[i].cur
		vec[i] = snaps[i].Version()
		// Stores own disjoint tails, so their changed sources are disjoint.
		changed = append(changed, changes[i]...)
	}
	slices.Sort(changed)
	e := s.newEntry(prev.global+1, vec, snaps, applied)
	rep := s.publish(e, parents, changed, resolved, deletions)
	rep.StandingElapsed = time.Since(start) - rep.RefreshElapsed
	rep.BatchEdges, rep.ChangedSources, rep.Version, rep.Changed = len(batch), len(changed), e.global, changed
	s.cache.Advance(changed, prev.global, e.global)
	s.met.noteBatch(applied)
	return rep
}

// publish is the writer's exclusive window. Under the evaluator's lock it
// publishes e, maintains every standing set and maintained answer onto it
// and refreshes the subscriptions — so no reader pins e before the state
// that bounds it — and only then retires the snapshots e superseded. A
// reader pins under the shared lock: one that pinned the entry before e
// did so before this window, and its pins keep those mirrors alive until
// it releases; any later one pins e. A superseded mirror recycles once
// the history ring has evicted every entry that holds it and its readers
// have released it.
func (s *System) publish(e *entry, parents []*streamgraph.Snapshot, changed []graph.VertexID, resolved []graph.Edge, deletions bool) (rep BatchReport) {
	s.ev.mu.Lock()
	defer s.ev.mu.Unlock()
	s.bar.publish(e)
	switch {
	case !deletions:
		rep = s.ev.inserted(s.current(e), changed)
	case len(changed) > 0:
		rep = s.ev.deleted(s.current(e), resolved)
	default:
		// A deletion that removed nothing: the graph is the one the state
		// already stands on, so subscribers have nothing to learn and cached
		// answers are merely re-stamped (ResultCache.Advance), but the
		// standing sets have to record the version — the next insertion's
		// maintenance goes by it.
		s.ev.stamp(e.global)
	}
	for _, parent := range parents {
		if parent != nil {
			parent.RetireFlat()
		}
	}
	return rep
}

// newEntry builds a barrier entry, holding its snapshots' mirrors until
// the history ring evicts it, precomputing the vertex count and growing
// the owner table to cover it. applied marks the stores the
// entry's mutation reached. Caller holds the apply token (or is
// newSystem).
func (s *System) newEntry(global uint64, vec []uint64, snaps []*streamgraph.Snapshot, applied []bool) *entry {
	e := &entry{global: global, vec: vec, snaps: snaps, applied: applied}
	for _, snap := range snaps {
		e.n = max(e.n, snap.NumVertices())
		// Every snapshot is its store's latest, whose mirror the store's
		// graph holds, so the hold cannot fail.
		snap.Flatten().Hold()
	}
	for v := len(s.owner); v < e.n; v++ {
		s.owner = append(s.owner, uint8(s.ownerOf(graph.VertexID(v))))
	}
	e.owner = s.owner
	return e
}

// mix64 is the splitmix64 finalizer — the vertex-to-store hash. A plain
// modulo would put consecutive vertex IDs (which generators and RMAT
// renumberings correlate with degree) on consecutive stores in lockstep.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ownerOf names the store that holds v's out-arcs.
func (s *System) ownerOf(v graph.VertexID) int {
	return int(mix64(uint64(v)) % uint64(len(s.stores)))
}

// arcs returns the arcs a batch stores or deletes. Those are the edges
// themselves unless an undirected graph sits on directed stores
// (NewSharded): then each edge is followed by its mirror — the order an
// undirected streamgraph offers them in, so first-wins deduplication keeps
// the same arc at every store count. An undirected store (NewSystem over an
// undirected graph) mirrors them itself.
func (s *System) arcs(batch []graph.Edge) []graph.Edge {
	if s.directed || !s.stores[0].g.Directed() {
		return batch
	}
	out := make([]graph.Edge, 0, 2*len(batch))
	for _, e := range batch {
		out = append(out, e, graph.Edge{Src: e.Dst, Dst: e.Src, W: e.W})
	}
	return out
}

// split routes arcs to their tails' stores, preserving relative order
// within each; a store no arc reaches gets nil. An empty batch reaches
// store 0 — with an empty sub-batch — so that every batch advances some
// store: at S=1 the store's version then always equals the System's.
func (s *System) split(arcs []graph.Edge) [][]graph.Edge {
	parts := make([][]graph.Edge, len(s.stores))
	if len(arcs) == 0 {
		parts[0] = []graph.Edge{}
	}
	for _, a := range arcs {
		i := s.ownerOf(a.Src)
		parts[i] = append(parts[i], a)
	}
	return parts
}

// resolveDeletionWeights returns batch with each arc's weight replaced
// by the weight entry e's stores hold for it, read off the mirror of the
// arc's tail's store. Deletion requests identify arcs by endpoints
// (/v1/delete lets clients omit the weight), but the trimmed recovery's
// witness test compares Relax(val(a), w) against val(b) using the deleted
// arc's weight — a phantom weight matches nothing, skips the taint, and
// leaves stale-too-good standing values behind. Arcs e does not contain
// keep their requested weight — they delete nothing, so at worst they
// over-taint, which is sound. On undirected graphs the mirror arc carries
// the same weight, so the forward lookup alone resolves every existing
// edge.
func resolveDeletionWeights(e *entry, batch []graph.Edge) []graph.Edge {
	out := append([]graph.Edge(nil), batch...)
	for i, a := range out {
		if int(a.Src) >= e.n {
			continue
		}
		snap := e.snaps[e.owner[a.Src]]
		if int(a.Src) >= snap.NumVertices() {
			continue
		}
		if w, ok := snap.HasEdge(a.Src, a.Dst); ok {
			out[i].W = w
		}
	}
	return out
}

// storeMetrics instruments the writer's batch split. Its methods are
// nil-safe, so an uninstrumented System pays a single nil check per batch.
type storeMetrics struct {
	// batches counts admitted mutations (each advances the version by one).
	batches *metrics.Counter
	// subBatches counts the per-store sub-batches applied — the batch-split
	// fan-out: 1 for a batch whose arcs all hash to one store, S for a
	// perfectly spread one.
	subBatches *metrics.Counter
}

// registerStoreMetrics registers the writer's instruments on reg
// (idempotent by name).
func registerStoreMetrics(reg *metrics.Registry) *storeMetrics {
	return &storeMetrics{
		batches: reg.Counter("tripoline_shard_batches_total",
			"Update batches admitted by the writer."),
		subBatches: reg.Counter("tripoline_shard_subbatches_total",
			"Per-store sub-batches applied (batch-split fan-out)."),
	}
}

func (m *storeMetrics) noteBatch(applied []bool) {
	if m == nil {
		return
	}
	m.batches.Inc()
	for _, a := range applied {
		if a {
			m.subBatches.Inc()
		}
	}
}
