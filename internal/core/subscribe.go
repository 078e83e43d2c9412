package core

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"tripoline/internal/bitset"
	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/parallel"
	"tripoline/internal/props"
	"tripoline/internal/standing"
)

// Subscriptions are standing queries kept for their answers. SubscribeCtx
// registers (problem, source), answers it once with the same Δ-initialized
// evaluation a fresh Query runs (the snapshot frame) and installs that
// answer as a lane of the problem's standing set (standing.Manager.Install).
// Subscribers of one standing set and source (BFS and SSNSP at u) share a
// lane; the last one out frees it. The snapshot is evaluated outside the
// lock, like a query; batches published meanwhile are caught up before the
// install (SubscribeCtx). The evaluator keeps only the registry — each
// lane's subscribers, their pending sets and frames.
//
// The writer maintains the lanes with the roots, in one pass over each
// batch (standing.Manager.Update, UpdateDeletions), under mu alone; install
// and free therefore hold mu shared, then subMu. The pass records exactly
// the (lane, vertex) pairs it moved — after a deletion too: trim resets a
// tainted lane value to the meet over the roots and records it only when
// it comes back different — and a delta frame carries exactly those
// (DrainMoved): nothing is re-evaluated and no answer is diffed.
//
// SSNSP's counts are not a triangle problem: after every batch each
// distinct SSNSP lane is recounted exactly over its levels — the lanes
// side by side, one per worker, each count one sequential walk
// (countLanes) — and each subscriber's counts are compared with its
// previous ones. PageRank and CC have one maintained
// answer each, which is compared with its previous copy — one copy per
// problem, not per subscriber.
//
// Delivery is lossy-but-consistent. Each subscriber keeps a pending set of
// vertices: what moved since its last delivered frame, plus every vertex
// added since. A delta frame carries the current value of every pending
// vertex and clears the set; a frame dropped on a full channel leaves it
// set, so the next delivered frame is cumulative from the client's actual
// state, and applying frames in order always reproduces the exact answer
// at the frame's version — there is no resync protocol because none is
// needed.

// VertexDelta is one changed entry in a delta frame.
type VertexDelta struct {
	Vertex graph.VertexID `json:"v"`
	Value  uint64         `json:"x"`
}

// ResultFrame is one push to a subscriber. Kind "snapshot" carries the
// full value array (the first frame); kind "delta" carries the entries
// that moved since the previous delivered frame, in ascending vertex
// order, after insertions and deletions alike (see the package notes
// above). Vertices added by a batch are always included in Changed, so a
// client extends its array without knowing the problem's identity value.
type ResultFrame struct {
	Kind    string         `json:"kind"` // "snapshot" | "delta"
	Problem string         `json:"problem"`
	Source  graph.VertexID `json:"src"`
	Version uint64         `json:"version"`
	// Snapshot payload.
	Values []uint64 `json:"values,omitempty"`
	Counts []uint64 `json:"counts,omitempty"` // SSNSP shortest-path counts
	// Delta payload. A delta frame with no changes still announces the
	// version advance.
	Changed       []VertexDelta `json:"changed,omitempty"`
	ChangedCounts []VertexDelta `json:"changed_counts,omitempty"`
}

// Subscription is one registered (problem, source) push stream. Frames
// are delivered on a buffered channel; the channel closes when
// Unsubscribe is called. All mutable state but the delivered version is
// owned by the evaluator (guarded by subMu) — callers only read the
// identity fields and Version, and drain Frames().
type Subscription struct {
	id      uint64
	Problem string
	Source  graph.VertexID

	frames chan ResultFrame
	// version is the version of the last delivered frame.
	version atomic.Uint64

	// Guarded by evaluator.subMu. lane is the maintained answer (nil for
	// PageRank and CC, whose answer is the evaluator's). pending holds the
	// vertices whose value the client may not have; counts is SSNSP's
	// count column at the latest version and pendingCounts its pending
	// set, both nil for every other problem.
	lane          *lane
	pending       *bitset.Set
	counts        []uint64
	pendingCounts *bitset.Set
	closed        bool
}

// ID returns the subscription's registry identifier.
func (sub *Subscription) ID() uint64 { return sub.id }

// Frames returns the receive side of the push stream. The channel is
// closed by Unsubscribe.
func (sub *Subscription) Frames() <-chan ResultFrame { return sub.frames }

// Version returns the version of the last delivered frame. Safe to call
// while batches are applied.
func (sub *Subscription) Version() uint64 { return sub.version.Load() }

// DefaultSubscriptionBuffer is the frame-channel capacity
// SubscribeCtx(buffer<=0) selects. One slot would livelock a client that
// polls between batches; a handful absorbs bursts without letting a dead
// client pin arbitrarily many frames.
const DefaultSubscriptionBuffer = 8

// lane is one subscribed source's maintained answer: lane id of set, read
// by the subscribers listed.
type lane struct {
	set    *standing.Manager
	id     int
	source graph.VertexID
	subs   []*Subscription
}

// SubscribeCtx registers a subscription for (problem, u), computes its
// initial answer at the latest version, which pin supplies (the engine
// honors ctx like any user query), installs it as the subscription's
// maintained answer and delivers it as the snapshot frame. The caller
// must eventually call Unsubscribe. Problems whose answer is not one value
// per vertex (Radii) return an ErrSubscribeUnsupported-wrapping error.
//
// The snapshot is evaluated like a query, the engine run outside the lock,
// so a subscribe blocks neither writers nor queries while it runs. A lane
// must join its set at the version the set stands on, so the install
// re-checks the version under the lock. Batches published meanwhile are
// logged for the subscribe (catchup): after insertions the snapshot
// resumes from the sources whose out-arcs they changed, and after a
// deletion it is evaluated again.
func (ev *evaluator) SubscribeCtx(ctx context.Context, problem string, u graph.VertexID, buffer int, pin Pin) (*Subscription, error) {
	pr, err := ev.lookup(problem)
	if err != nil {
		return nil, err
	}
	if !pr.Subscribable() {
		return nil, fmt.Errorf("core: problem %q does not support subscriptions: %w", problem, ErrSubscribeUnsupported)
	}
	if buffer <= 0 {
		buffer = DefaultSubscriptionBuffer
	}
	if pr.set == nil {
		return ev.install(pr, u, buffer, nil, nil)
	}
	c := &catchup{}
	ev.subMu.Lock()
	ev.catchups[c] = struct{}{}
	ev.subMu.Unlock()
	defer func() {
		ev.subMu.Lock()
		delete(ev.catchups, c)
		ev.subMu.Unlock()
	}()
	var q *evaluation
	var res *QueryResult
	for {
		caughtUp := false
		if res != nil {
			res, err = ev.catchUp(ctx, pr, u, pin, q, c)
			caughtUp = res != nil
		}
		if res == nil && err == nil {
			q, res, err = ev.snapshot(ctx, pr, u, pin, c)
		}
		if err != nil {
			return nil, err
		}
		if ev.evaluated != nil {
			ev.evaluated(caughtUp)
		}
		if sub, err := ev.install(pr, u, buffer, q, res); sub != nil || err != nil {
			return sub, err
		}
	}
}

// catchup logs, for one subscribe evaluating outside the lock, the
// batches published since the version its evaluation stands on: the
// sources whose out-arcs insertions changed, and whether a deletion
// removed arcs. The writer appends inside its exclusive window
// (refreshSubscriptions); the subscribe reads and resets it under the
// shared lock.
type catchup struct {
	changed []graph.VertexID
	deleted bool
}

// snapshot answers (pr, u) with the Δ-evaluation a fresh Query runs, on
// the view pin supplies, outside the lock; c starts logging at that view.
func (ev *evaluator) snapshot(ctx context.Context, pr *problem, u graph.VertexID, pin Pin, c *catchup) (*evaluation, *QueryResult, error) {
	q, view, release, err := ev.evalDelta(ctx, pr.set, pin, func(g View) ([]graph.VertexID, error) {
		if err := sourceInRange(u, g.NumVertices(), g.Version()); err != nil {
			return nil, err
		}
		*c = catchup{}
		return []graph.VertexID{u}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	defer release()
	res, err := pr.Answer(ctx, view, u, q.st.Values, 1, q.stats)
	if err != nil {
		return nil, nil, err
	}
	res.Version = view.Version()
	return q, res, nil
}

// catchUp brings q, converged on an earlier version, to the latest version
// outside the lock, from what c logged since: insertions only add arcs,
// all of them out of the changed sources, so the push resumes from those
// sources. It returns a nil result when a deletion was logged; the caller
// evaluates again.
func (ev *evaluator) catchUp(ctx context.Context, pr *problem, u graph.VertexID, pin Pin, q *evaluation, c *catchup) (*QueryResult, error) {
	var log catchup
	// The init step below cannot fail, so neither can pinShared.
	view, release, _ := ev.pinShared(pin, func(View) error {
		log, *c = *c, catchup{}
		return nil
	})
	defer release()
	if log.deleted {
		return nil, nil
	}
	masks := make([]uint64, len(log.changed))
	for i := range masks {
		masks[i] = 1
	}
	q.stats.Add(q.st.RunPush(view, log.changed, masks))
	res, err := pr.Answer(ctx, view, u, q.st.Values, 1, q.stats)
	if err != nil {
		return nil, err
	}
	res.Version = view.Version()
	return res, nil
}

// install registers a subscription to (pr, u) and delivers its snapshot
// frame under the shared lock, so that no batch is published meanwhile.
// q and res are the snapshot evaluation of a problem with a standing set:
// its column becomes the subscription's lane, unless the set no longer
// stands on res's version, in which case install returns (nil, nil) and
// the caller catches up. A Base-less problem's snapshot (q == nil) is its
// maintained answer, read here.
func (ev *evaluator) install(pr *problem, u graph.VertexID, buffer int, q *evaluation, res *QueryResult) (*Subscription, error) {
	ev.mu.RLock()
	defer ev.mu.RUnlock()
	if q == nil {
		vals, version := pr.ans.values()
		if err := sourceInRange(u, len(vals), version); err != nil {
			return nil, err
		}
		res = &QueryResult{Values: vals, Version: version}
	} else if pr.set.LastVersion != res.Version {
		return nil, nil
	}
	n := len(res.Values)
	sub := &Subscription{Problem: pr.Name, Source: u, frames: make(chan ResultFrame, buffer), pending: bitset.New(n)}
	if res.Counts != nil {
		sub.counts, sub.pendingCounts = res.Counts, bitset.New(n)
	}

	ev.subMu.Lock()
	defer ev.subMu.Unlock()
	ev.subSeq++
	sub.id = ev.subSeq
	ev.subs[sub.id] = sub
	if q != nil {
		ev.attach(sub, pr.set, q.st)
	} else if ev.whole[pr.Name] == nil {
		ev.whole[pr.Name] = res.Values
	}
	sub.version.Store(res.Version)
	select {
	case sub.frames <- ResultFrame{
		Kind: "snapshot", Problem: pr.Name, Source: u, Version: res.Version,
		Values: slices.Clone(res.Values), Counts: slices.Clone(res.Counts),
	}:
	default:
		// Unreachable: the channel is fresh with buffer >= 1 and no
		// refresh sends before the subscription is registered (both under
		// subMu).
	}
	return sub, nil
}

// attach gives sub the lane of its source in set, installing col's one
// column — the snapshot evaluation, converged on the version set stands
// on — as a new lane when the source has none. Caller holds mu shared and
// subMu.
func (ev *evaluator) attach(sub *Subscription, set *standing.Manager, col *engine.State) {
	lanes := ev.lanes[set]
	id := slices.IndexFunc(lanes, func(l *lane) bool { return l != nil && l.source == sub.Source })
	if id < 0 {
		id = set.Install(sub.Source, col)
		lanes = append(lanes, make([]*lane, max(0, id+1-len(lanes)))...)
		lanes[id] = &lane{set: set, id: id, source: sub.Source}
		ev.lanes[set] = lanes
	}
	sub.lane = lanes[id]
	sub.lane.subs = append(sub.lane.subs, sub)
}

// Unsubscribe deregisters sub, frees its lane when no other subscriber
// reads it, and closes its frame channel. Idempotent. Freeing writes the
// lane, which the writer maintains under mu alone, so Unsubscribe holds mu
// shared as well as subMu.
func (ev *evaluator) Unsubscribe(sub *Subscription) {
	ev.mu.RLock()
	defer ev.mu.RUnlock()
	ev.subMu.Lock()
	defer ev.subMu.Unlock()
	if sub.closed {
		return
	}
	sub.closed = true
	delete(ev.subs, sub.id)
	close(sub.frames)
	if l := sub.lane; l != nil {
		if l.subs = slices.DeleteFunc(l.subs, func(x *Subscription) bool { return x == sub }); len(l.subs) == 0 {
			ev.lanes[l.set][l.id] = nil
			l.set.Free(l.id)
		}
		return
	}
	for _, other := range ev.subs {
		if other.Problem == sub.Problem {
			return
		}
	}
	delete(ev.whole, sub.Problem)
}

// Subscribers returns the number of registered subscriptions.
func (ev *evaluator) Subscribers() int {
	ev.subMu.Lock()
	n := len(ev.subs)
	ev.subMu.Unlock()
	return n
}

// refreshSubscriptions logs the batch that produced view — the sources it
// changed, or a deletion — in every pending subscribe's catchup, then
// brings every subscription to view, onto which the writer just maintained
// the standing sets and their lanes: the moved lane values, recounts and
// changed maintained answers join each subscriber's pending sets, and a
// delta frame is pushed to each. The fan-out is recorded in rep. ctx is
// the batch's: the refresh carries its values but not its cancellation.
// Writer-side only: the caller holds mu exclusively (lock order mu →
// subMu).
func (ev *evaluator) refreshSubscriptions(ctx context.Context, view View, rep *BatchReport, changed []graph.VertexID, deleted bool) {
	ev.subMu.Lock()
	defer ev.subMu.Unlock()
	for c := range ev.catchups {
		c.changed = append(c.changed, changed...)
		c.deleted = c.deleted || deleted
	}
	rep.Subscribers = len(ev.subs)
	if rep.Subscribers == 0 {
		return
	}
	start := time.Now()
	n := view.NumVertices()
	// Vertices the batch added are pending for everyone. counted lists
	// the distinct SSNSP lanes.
	subs := make([]*Subscription, 0, len(ev.subs))
	var counted []*lane
	for _, sub := range ev.subs {
		subs = append(subs, sub)
		growPending(sub.pending, n)
		if sub.counts != nil {
			growPending(sub.pendingCounts, n)
			if !slices.Contains(counted, sub.lane) {
				counted = append(counted, sub.lane)
			}
		}
	}
	for set, lanes := range ev.lanes {
		set.DrainMoved(func(l, v int) {
			for _, sub := range lanes[l].subs {
				sub.pending.Set(v)
			}
		})
	}
	for name, prev := range ev.whole {
		cur, _ := ev.problems[name].ans.values()
		for _, sub := range subs {
			if sub.Problem == name {
				markMoved(sub.pending, prev, cur)
			}
		}
		ev.whole[name] = cur
	}
	counts := countLanes(context.WithoutCancel(ctx), view, counted)
	for _, sub := range subs {
		if sub.counts != nil {
			c := counts[slices.Index(counted, sub.lane)]
			markMoved(sub.pendingCounts, sub.counts, c)
			sub.counts = c
		}
	}
	// The frames only read, so they are built side by side, then sent in
	// turn.
	version := view.Version()
	frames := make([]ResultFrame, len(subs))
	parallel.ForGrain(len(subs), 1, func(i int) { frames[i] = ev.frame(subs[i], version) })
	for i, sub := range subs {
		select {
		case sub.frames <- frames[i]:
			sub.pending.Reset()
			if sub.pendingCounts != nil {
				sub.pendingCounts.Reset()
			}
			sub.version.Store(version)
			rep.FramesSent++
		default:
			// Full channel: the client missed this version. Its pending
			// sets keep growing until a frame gets through.
			rep.FramesDropped++
		}
	}
	rep.RefreshElapsed = time.Since(start)
}

// countLanes runs SSNSP's count round from each lane's source over its
// levels, the lanes side by side, one per worker: one count is a
// sequential walk (props.CountShortestPaths). The levels are gathered
// first, every lane of a standing set in one pass over its pages, since
// lanes share slot blocks. The writer passes a ctx that is never done:
// its window runs to completion.
func countLanes(ctx context.Context, g engine.ArcView, lanes []*lane) [][]uint64 {
	levels := make([][]uint64, len(lanes))
	bySet := make(map[*standing.Manager][]int)
	for i, l := range lanes {
		bySet[l.set] = append(bySet[l.set], i)
	}
	for set, at := range bySet {
		ids := make([]int, len(at))
		for j, i := range at {
			ids[j] = lanes[i].id
		}
		for j, col := range set.LaneColumns(ids) {
			levels[at[j]] = col
		}
	}
	counts := make([][]uint64, len(lanes))
	parallel.ForGrain(len(lanes), 1, func(i int) {
		counts[i], _, _ = props.CountShortestPaths(ctx, g, lanes[i].source, levels[i])
	})
	return counts
}

// growPending extends a pending set to n vertices, the new ones pending.
func growPending(pending *bitset.Set, n int) {
	old := pending.Len()
	pending.Grow(n)
	for v := old; v < n; v++ {
		pending.Set(v)
	}
}

// markMoved adds to pending every vertex whose value differs between prev
// and cur; vertices prev lacks are already pending (growPending).
func markMoved(pending *bitset.Set, prev, cur []uint64) {
	for v := range min(len(prev), len(cur)) {
		if prev[v] != cur[v] {
			pending.Set(v)
		}
	}
}

// frame builds sub's delta frame at version: the current value of every
// pending vertex. Caller holds subMu.
func (ev *evaluator) frame(sub *Subscription, version uint64) ResultFrame {
	f := ResultFrame{Kind: "delta", Problem: sub.Problem, Source: sub.Source, Version: version}
	arr, stride, off := ev.whole[sub.Problem], 1, 0
	if l := sub.lane; l != nil {
		arr, stride, off = l.set.LaneView(l.id)
	}
	f.Changed = deltas(sub.pending, arr, stride, off)
	if sub.counts != nil {
		f.ChangedCounts = deltas(sub.pendingCounts, sub.counts, 1, 0)
	}
	return f
}

// deltas lists (v, arr[v*stride+off]) for every vertex v in pending,
// ascending: a lane's strided view or a contiguous column (stride 1).
func deltas(pending *bitset.Set, arr []uint64, stride, off int) []VertexDelta {
	count := pending.Count()
	if count == 0 {
		return nil
	}
	out := make([]VertexDelta, 0, count)
	pending.ForEach(func(v int) { out = append(out, VertexDelta{Vertex: graph.VertexID(v), Value: arr[v*stride+off]}) })
	return out
}
