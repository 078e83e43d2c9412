package check

import (
	"context"
	"errors"
	"fmt"

	"tripoline/internal/core"
	"tripoline/internal/graph"
	"tripoline/internal/xrand"
)

// The serving checker replays a schedule against the serving surface
// instead of the query surface: a Δ-result cache sits in front of every
// query, and a churning population of subscribers receives delta frames
// after every mutation. The invariant under test is the serving layer's
// core promise — a cached answer and a subscriber's frame-reconstructed
// state are exact for the version they report, no matter how stale that
// version is — so every observable is verified against the from-scratch
// CSR oracle at its reported version, and cached copies are additionally
// required to be bit-identical to the evaluation that produced them. As
// in every replay, the oracle reads a reference graph fed the same
// mutations, never the System's own stores. CheckSchedule runs it when
// Options.Serving is set; Options.CorruptDelta has no seam to arm here.
//
// Subscribers come in two kinds. Most are synchronous: large buffers,
// drained after every op, so every frame is observed, every intermediate
// version is checked, and none may be dropped. Every third is lossy: a
// one-frame buffer drained only every few ops, so the writer drops their
// frames and the next delivered one must be cumulative from what the
// client actually applied — each delivered frame's reconstructed state is
// still verified at its version.

const (
	// servingCacheEntries keeps the LRU small enough that long schedules
	// exercise eviction, large enough that the just-stored entry never
	// evicts before its read-back check.
	servingCacheEntries = 32
	// servingSubBuffer is sized so a synchronously drained subscriber
	// never drops a frame (at most a handful of versions publish between
	// drains).
	servingSubBuffer = 64
	// lossyDrainEvery is how many ops pass between drains of a lossy
	// subscriber, whose buffer holds one frame.
	lossyDrainEvery = 4
	// maxServingClients bounds the concurrent subscriber population.
	maxServingClients = 6
)

// servingClient mirrors what a subscriber's client would hold: the value
// arrays reconstructed purely by applying frames in order. Its state
// after frame k must equal the exact answer at frame k's version.
type servingClient struct {
	sub     *core.Subscription
	lossy   bool
	vals    []uint64
	counts  []uint64
	version uint64
}

type servingReplayer struct {
	// oracleSet is the ground truth, fed every mutation the System under
	// test applies; it collects the divergences.
	*oracleSet
	sys     *core.System
	rng     *xrand.RNG
	clients []*servingClient
	v       Verdict
}

// checkServing replays the schedule once under ctx through a fresh
// checked System over the given number of stores, with the result cache
// on and subscribers churning, verifying every cached answer and every
// applied frame against the oracle at its reported version.
func checkServing(ctx context.Context, s *Schedule, shards int) Verdict {
	sys := checked(core.NewSharded(s.N, false, shards, replayK))
	sys.EnableResultCache(servingCacheEntries)
	r := &servingReplayer{
		oracleSet: newOracleSet(s.N),
		sys:       sys,
		rng:       xrand.New(s.Seed ^ 0xc2b2ae3d27d4eb4f),
		v:         Verdict{Seed: s.Seed, N: s.N, Ops: len(s.Ops)},
	}
	for i, op := range s.Ops {
		r.step(ctx, i, op)
		r.churn(ctx, i)
	}
	// Final probes: every problem queried and read back through the cache
	// on the final graph, then all remaining subscribers drained and torn
	// down.
	n := r.sys.NumVertices()
	for _, p := range Problems {
		r.query(ctx, len(s.Ops), Op{Kind: OpQuery, Problem: p, Source: graph.VertexID(n / 2)})
	}
	for _, c := range r.clients {
		r.drainClient(c, len(s.Ops))
		r.sys.Unsubscribe(c.sub)
	}
	r.v.Verified, r.v.Reasons = r.verified, r.reasons
	r.v.Diverged = len(r.reasons) > 0
	return r.v
}

func (r *servingReplayer) step(ctx context.Context, i int, op Op) {
	switch op.Kind {
	case OpInsert, OpForceFull, OpDelete:
		rep := r.apply(ctx, r.sys, fmt.Sprintf("serving: op %d", i), op.Kind == OpDelete, op.Edges)
		r.v.FramesDropped += rep.FramesDropped
		r.drainAll(i, rep.Version)
	case OpQueryAt:
		ver := r.versions[op.VerIdx%len(r.versions)]
		if res, ok := r.sys.CachedQueryAt(op.Problem, op.Source, ver); ok {
			r.v.CacheHits++
			if res.Version != ver {
				r.diverge("serving: op %d cached-queryat served v=%d, want %d", i, res.Version, ver)
			}
			r.check(i, "cached-queryat", op.Problem, res)
		}
		res, err := r.sys.QueryAtCtx(ctx, ver, op.Problem, op.Source)
		r.v.Queries++
		switch {
		case err == nil:
			r.check(i, "queryat", op.Problem, res)
		case errors.Is(err, core.ErrNoSuchVersion) || errors.Is(err, core.ErrSourceOutOfRange):
			// Legitimate misses (evicted history, repro schedules with
			// out-of-range sources); nothing to serve, nothing to verify.
		default:
			r.diverge("serving: op %d queryat: %v", i, err)
		}
	default:
		// Every other op kind collapses to the cached-query exercise: the
		// serving replay has no fault seams, so cancels/evicts/deny-retain
		// ops are replayed as plain queries at the same (problem, source).
		r.query(ctx, i, op)
	}
}

// query is the cached-query exercise: consult the cache under a
// rng-drawn staleness policy, verify any hit at its reported version,
// then evaluate for real and require the freshly stored entry to read
// back bit-identically at the current version.
func (r *servingReplayer) query(ctx context.Context, i int, op Op) {
	staleOK := r.rng.Intn(2) == 0
	cur := r.sys.Version()
	if res, stale, ok := r.sys.CachedQuery(op.Problem, op.Source, 0, staleOK); ok {
		r.v.CacheHits++
		if !staleOK {
			if res.Version != cur {
				r.diverge("serving: op %d strict hit at v=%d, current %d", i, res.Version, cur)
			}
			if stale != 0 {
				r.diverge("serving: op %d strict hit aged %d batches", i, stale)
			}
		}
		r.check(i, "cached-query", op.Problem, res)
	}
	res, err := r.sys.QueryCtx(ctx, op.Problem, op.Source)
	r.v.Queries++
	if err != nil {
		if !errors.Is(err, core.ErrSourceOutOfRange) {
			r.diverge("serving: op %d query %s src=%d: %v", i, op.Problem, op.Source, err)
		}
		return
	}
	r.check(i, "query", op.Problem, res)
	res2, stale2, ok := r.sys.CachedQuery(op.Problem, op.Source, res.Version, false)
	if !ok {
		r.diverge("serving: op %d fresh %s result not served back from cache", i, op.Problem)
		return
	}
	if res2.Version != res.Version || stale2 != 0 {
		r.diverge("serving: op %d read-back v=%d stale=%d, want v=%d stale=0", i, res2.Version, stale2, res.Version)
	}
	if msg := bitIdentical(res, res2); msg != "" {
		r.diverge("serving: op %d cache read-back %s: %s", i, op.Problem, msg)
	}
}

// check verifies one served result against the oracle at the version it
// reports.
func (r *servingReplayer) check(i int, what, problem string, res *core.QueryResult) {
	if msg := r.verifyAt(problem, res.Source, res.Version, res.Values, res.Counts); msg != "" {
		r.diverge("serving: op %d %s %s src=%d v=%d: %s", i, what, problem, res.Source, res.Version, msg)
	}
}

// bitIdentical compares a cached copy against the result it was copied
// from. No tolerance, even for PageRank: the cache stores bits.
func bitIdentical(a, b *core.QueryResult) string {
	if len(a.Values) != len(b.Values) || len(a.Counts) != len(b.Counts) {
		return fmt.Sprintf("shape %d/%d vs %d/%d values/counts",
			len(a.Values), len(a.Counts), len(b.Values), len(b.Counts))
	}
	for x := range a.Values {
		if a.Values[x] != b.Values[x] {
			return fmt.Sprintf("value[%d] %d vs %d", x, a.Values[x], b.Values[x])
		}
	}
	for x := range a.Counts {
		if a.Counts[x] != b.Counts[x] {
			return fmt.Sprintf("count[%d] %d vs %d", x, a.Counts[x], b.Counts[x])
		}
	}
	return ""
}

// churn adjusts the subscriber population after each op: sometimes an
// existing subscriber departs (drained first, so its last frames are
// still verified), sometimes a new one arrives and is checked from its
// snapshot frame onward.
func (r *servingReplayer) churn(ctx context.Context, i int) {
	if len(r.clients) > 0 && r.rng.Intn(5) == 0 {
		idx := r.rng.Intn(len(r.clients))
		c := r.clients[idx]
		r.drainClient(c, i)
		r.sys.Unsubscribe(c.sub)
		r.clients = append(r.clients[:idx], r.clients[idx+1:]...)
	}
	if len(r.clients) < maxServingClients && r.rng.Intn(3) != 0 {
		problem := Problems[r.rng.Intn(len(Problems))]
		src := graph.VertexID(r.rng.Intn(r.sys.NumVertices()))
		// Every third subscription is lossy. Counting instead of drawing
		// keeps the schedule's random stream what it was without them.
		lossy := r.v.Subscriptions%3 == 2
		buffer := servingSubBuffer
		if lossy {
			buffer = 1
		}
		sub, err := r.sys.SubscribeCtx(ctx, problem, src, buffer)
		if err != nil {
			r.diverge("serving: op %d subscribe %s src=%d: %v", i, problem, src, err)
			return
		}
		c := &servingClient{sub: sub, lossy: lossy}
		r.clients = append(r.clients, c)
		r.v.Subscriptions++
		r.drainClient(c, i) // the snapshot frame
	}
}

// drainAll drains every synchronous client after op i, which published
// version: each must have been delivered that version. Lossy clients are
// drained every lossyDrainEvery ops only.
func (r *servingReplayer) drainAll(i int, version uint64) {
	for _, c := range r.clients {
		if c.lossy {
			if i%lossyDrainEvery == 0 {
				r.drainClient(c, i)
			}
			continue
		}
		r.drainClient(c, i)
		if c.version != version {
			r.diverge("serving: op %d sub %s src=%d: synchronous client at v=%d after v=%d was published", i, c.sub.Problem, c.sub.Source, c.version, version)
		}
	}
}

// drainClient applies every buffered frame to the client's mirrored
// state and verifies that state against the oracle at each frame's
// version. The writer is quiescent here, so a non-blocking drain sees
// everything that was pushed.
func (r *servingReplayer) drainClient(c *servingClient, i int) {
	for {
		select {
		case f, ok := <-c.sub.Frames():
			if !ok {
				return
			}
			r.applyFrame(c, f, i)
		default:
			return
		}
	}
}

func (r *servingReplayer) applyFrame(c *servingClient, f core.ResultFrame, i int) {
	r.v.Frames++
	where := fmt.Sprintf("serving: op %d sub %s src=%d", i, c.sub.Problem, c.sub.Source)
	switch f.Kind {
	case "snapshot":
		c.vals = append(c.vals[:0], f.Values...)
		c.counts = append(c.counts[:0], f.Counts...)
	case "delta":
		if f.Version < c.version {
			r.diverge("%s: frame version went backwards (%d after %d)", where, f.Version, c.version)
		}
		c.vals = applyDeltas(c.vals, f.Changed)
		c.counts = applyDeltas(c.counts, f.ChangedCounts)
	default:
		r.diverge("%s: unknown frame kind %q", where, f.Kind)
		return
	}
	c.version = f.Version
	if msg := r.verifyAt(c.sub.Problem, c.sub.Source, f.Version, c.vals, c.counts); msg != "" {
		r.diverge("%s: %s frame v=%d: %s", where, f.Kind, f.Version, msg)
	}
}

// applyDeltas folds one frame's changed entries into a client array,
// growing it for vertices the client has not seen yet.
func applyDeltas(arr []uint64, deltas []core.VertexDelta) []uint64 {
	for _, d := range deltas {
		for int(d.Vertex) >= len(arr) {
			arr = append(arr, 0)
		}
		arr[d.Vertex] = d.Value
	}
	return arr
}
