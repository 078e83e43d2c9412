package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"tripoline/internal/engine"
	"tripoline/internal/graph"
)

// Subscriptions treat a user query as a continuously maintained
// materialized answer: SubscribeCtx registers (problem, source), answers
// it once (the snapshot frame), and from then on every mutation that
// changes the graph refreshes all subscribed sources and pushes only the
// changed (vertex, value) pairs as a delta frame. The registry and the
// refresh belong to the Evaluator, so a System and the shard router — at
// any shard count — serve subscriptions through the same code.
//
// The refresh runs inside the writer's exclusive mu window, right after
// standing maintenance (Evaluator.inserted/deleted): the standing arrays
// and the new version describe the same graph there, so each subscribed
// source gets the same Δ-initialized evaluation a fresh Query would —
// batched width-K (≤64 sources per fused engine run) instead of
// per-source.
//
// Delivery is lossy-but-consistent: a subscriber's baseline (the values
// its client last received) advances only when a frame is actually
// delivered, and every delta frame is diffed against that baseline. A
// slow client whose channel is full simply misses intermediate versions;
// the next delivered frame is cumulative from the client's actual state,
// so applying frames in order always reproduces the exact answer at the
// frame's version — there is no resync protocol because none is needed.

// VertexDelta is one changed entry in a delta frame.
type VertexDelta struct {
	Vertex graph.VertexID `json:"v"`
	Value  uint64         `json:"x"`
}

// ResultFrame is one push to a subscriber. Kind "snapshot" carries the
// full value array (the first frame); kind "delta" carries only the
// entries that differ from the previous delivered frame. Values beyond
// the baseline's length (vertices added by a batch) are always included
// in Changed, so a client extends its array without knowing the
// problem's identity value.
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
// Unsubscribe is called. All mutable state is owned by the Evaluator
// (guarded by subMu) — callers only read the identity fields and drain
// Frames().
type Subscription struct {
	id      uint64
	Problem string
	Source  graph.VertexID

	frames chan ResultFrame

	// Baseline: the values the client last received (nil until the
	// snapshot frame is delivered). Guarded by Evaluator.subMu. The slices
	// are never mutated in place — refresh replaces them wholesale — so
	// sharing them with delivered frames is safe.
	baseVals    []uint64
	baseCounts  []uint64
	baseVersion uint64
	ready       bool
	closed      bool
	dropped     uint64
}

// ID returns the subscription's registry identifier.
func (sub *Subscription) ID() uint64 { return sub.id }

// Frames returns the receive side of the push stream. The channel is
// closed by Unsubscribe.
func (sub *Subscription) Frames() <-chan ResultFrame { return sub.frames }

// Version returns the version of the last delivered frame.
func (sub *Subscription) Version() uint64 { return sub.baseVersion }

// DefaultSubscriptionBuffer is the frame-channel capacity
// SubscribeCtx(buffer<=0) selects. One slot would livelock a client that
// polls between batches; a handful absorbs bursts without letting a dead
// client pin arbitrarily many frames.
const DefaultSubscriptionBuffer = 8

// SubscribeCtx registers a subscription for (problem, u), computes its
// initial answer at the latest version, which pin supplies (the engine
// honors ctx like any user query), and delivers it as the snapshot frame.
// The caller must eventually call Unsubscribe. Problems whose answer is
// not one value per vertex (Radii) return an
// ErrSubscribeUnsupported-wrapping error.
func (ev *Evaluator) SubscribeCtx(ctx context.Context, problem string, u graph.VertexID, buffer int, pin Pin) (*Subscription, error) {
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
	sub := &Subscription{Problem: problem, Source: u, frames: make(chan ResultFrame, buffer)}

	// Register before computing the baseline. A batch that lands in
	// between sees ready=false and skips this subscription; the baseline
	// then just reports an older version, and the first post-subscribe
	// refresh diffs against it cumulatively — exact at every step.
	ev.subMu.Lock()
	if ev.subs == nil {
		ev.subs = make(map[uint64]*Subscription)
	}
	ev.subSeq++
	sub.id = ev.subSeq
	ev.subs[sub.id] = sub
	ev.subMu.Unlock()

	res, err := ev.query(ctx, pr, u, pin)
	if err != nil {
		ev.Unsubscribe(sub)
		return nil, err
	}

	ev.subMu.Lock()
	if sub.closed {
		ev.subMu.Unlock()
		return nil, fmt.Errorf("core: subscription closed during setup: %w", ErrCanceled)
	}
	sub.baseVals = res.Values
	sub.baseCounts = res.Counts
	sub.baseVersion = res.Version
	sub.ready = true
	select {
	case sub.frames <- ResultFrame{
		Kind: "snapshot", Problem: problem, Source: u, Version: res.Version,
		Values: append([]uint64(nil), res.Values...),
		Counts: append([]uint64(nil), res.Counts...),
	}:
	default:
		// Unreachable: the channel is fresh with buffer >= 1 and no
		// refresh sends before ready is set (both under subMu).
	}
	ev.subMu.Unlock()
	return sub, nil
}

// Unsubscribe deregisters sub and closes its frame channel. Idempotent.
func (ev *Evaluator) Unsubscribe(sub *Subscription) {
	ev.subMu.Lock()
	if !sub.closed {
		sub.closed = true
		delete(ev.subs, sub.id)
		close(sub.frames)
	}
	ev.subMu.Unlock()
}

// Subscribers returns the number of registered subscriptions.
func (ev *Evaluator) Subscribers() int {
	ev.subMu.Lock()
	n := len(ev.subs)
	ev.subMu.Unlock()
	return n
}

// refreshSubscriptions recomputes every ready subscription's answer on
// the post-maintenance view, pushes frames, and records the fan-out in
// rep. Writer-side only: the caller holds mu exclusively (lock order mu →
// subMu), so the standing state is quiescent and refresh reads it without
// locking.
func (ev *Evaluator) refreshSubscriptions(view View, rep *BatchReport) {
	ev.subMu.Lock()
	defer ev.subMu.Unlock()
	rep.Subscribers = len(ev.subs)
	if rep.Subscribers == 0 {
		return
	}
	start := time.Now()
	// Group ready subscriptions by problem, ordered by id so the fused
	// refresh batches are deterministic for a given registry state.
	byProblem := make(map[string][]*Subscription)
	for _, sub := range ev.subs {
		if sub.ready {
			byProblem[sub.Problem] = append(byProblem[sub.Problem], sub)
		}
	}
	for _, name := range ev.order {
		list := byProblem[name]
		if len(list) == 0 {
			continue
		}
		sort.Slice(list, func(a, b int) bool { return list[a].id < list[b].id })
		sources := make([]graph.VertexID, len(list))
		for i, sub := range list {
			sources[i] = sub.Source
		}
		vals, counts, version := ev.problems[name].refresh(view, sources)
		for i, sub := range list {
			frame := ResultFrame{
				Kind: "delta", Problem: name, Source: sub.Source, Version: version,
				Changed: diffValues(sub.baseVals, vals[i]),
			}
			if counts != nil {
				frame.ChangedCounts = diffValues(sub.baseCounts, counts[i])
			}
			select {
			case sub.frames <- frame:
				sub.baseVals = vals[i]
				if counts != nil {
					sub.baseCounts = counts[i]
				}
				sub.baseVersion = version
				rep.FramesSent++
			default:
				// Full channel: the client missed this version. Keep the
				// baseline where the client actually is — the next delivered
				// delta is cumulative from there.
				sub.dropped++
				rep.FramesDropped++
			}
		}
	}
	rep.RefreshElapsed = time.Since(start)
}

// diffValues lists the entries of next that differ from base. Entries
// past base's length (new vertices) are always included.
func diffValues(base, next []uint64) []VertexDelta {
	var out []VertexDelta
	n := len(base)
	if n > len(next) {
		n = len(next)
	}
	for i := 0; i < n; i++ {
		if base[i] != next[i] {
			out = append(out, VertexDelta{Vertex: graph.VertexID(i), Value: next[i]})
		}
	}
	for i := n; i < len(next); i++ {
		out = append(out, VertexDelta{Vertex: graph.VertexID(i), Value: next[i]})
	}
	return out
}

// refresh is refreshCtx for the writer: an admitted mutation's maintenance
// is not cancelable, so neither is the refresh inside it, and cancellation
// is the only way refreshCtx fails.
func (pr *problem) refresh(view View, sources []graph.VertexID) (vals, counts [][]uint64, version uint64) {
	vals, counts, version, _ = pr.refreshCtx(context.Background(), view, sources)
	return vals, counts, version
}

// refreshCtx recomputes the problem's answer for every subscribed source
// on the writer's post-maintenance view: the Δ-based evaluation of a fresh
// QueryCtx, minus the pinning (the writer holds the exclusive lock and
// hands in the view), fused ≤64 sources per engine run, with the finish
// step per source. counts is nil unless the problem has any. The returned
// slices are fresh — they become subscriber baselines and frame payloads —
// except that a maintained answer, being source-independent, is copied
// once and shared by all its subscribers.
func (pr *problem) refreshCtx(ctx context.Context, view View, sources []graph.VertexID) (vals, counts [][]uint64, version uint64, err error) {
	vals = make([][]uint64, len(sources))
	if pr.set == nil {
		shared, version := pr.ans.values()
		for i := range vals {
			vals[i] = shared
		}
		return vals, nil, version, nil
	}
	for base := 0; base < len(sources); base += 64 {
		chunk := sources[base:min(base+64, len(sources))]
		q, err := deltaInit(ctx, pr.set, chunk)
		if err != nil {
			return nil, nil, 0, err
		}
		if err := q.run(ctx, view); err != nil {
			return nil, nil, 0, err
		}
		for j, u := range chunk {
			// Column always copies, so each subscriber gets its own slice.
			res, err := pr.Answer(ctx, view, u, q.st.Column(j), 1, engine.Stats{})
			if err != nil {
				return nil, nil, 0, err
			}
			vals[base+j] = res.Values
			if res.Counts != nil {
				if counts == nil {
					counts = make([][]uint64, len(sources))
				}
				counts[base+j] = res.Counts
			}
		}
	}
	return vals, counts, view.Version(), nil
}
