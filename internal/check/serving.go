package check

import (
	"context"
	"errors"
	"fmt"

	"tripoline/internal/core"
	"tripoline/internal/graph"
	"tripoline/internal/streamgraph"
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
// required to be bit-identical to the evaluation that produced them. The
// system under test is any core.Backend — a core.System, or a shard.Router
// at any shard count — so the oracle reads a reference streamgraph fed the
// same mutations, never the system's own store.
//
// Subscribers here are synchronous: large buffers, drained after every
// op. That removes the (legitimate, tested elsewhere) lossy-delivery
// behavior from the picture, so every frame is observed and every
// intermediate version is checked.

const (
	// servingCacheEntries keeps the LRU small enough that long schedules
	// exercise eviction, large enough that the just-stored entry never
	// evicts before its read-back check.
	servingCacheEntries = 32
	// servingSubBuffer is sized so a synchronously drained subscriber
	// never drops a frame (at most a handful of versions publish between
	// drains).
	servingSubBuffer = 64
	// maxServingClients bounds the concurrent subscriber population.
	maxServingClients = 6
)

// ServingVerdict is the deterministic outcome of serving-checking one
// schedule.
type ServingVerdict struct {
	Seed          uint64   `json:"seed"`
	N             int      `json:"n"`
	Ops           int      `json:"ops"`
	CacheHits     int      `json:"cache_hits"`
	Frames        int      `json:"frames"`
	Subscriptions int      `json:"subscriptions"`
	Diverged      bool     `json:"diverged"`
	Reasons       []string `json:"reasons,omitempty"`
}

// servingClient mirrors what a subscriber's client would hold: the value
// arrays reconstructed purely by applying frames in order. Its state
// after frame k must equal the exact answer at frame k's version.
type servingClient struct {
	sub     *core.Subscription
	vals    []uint64
	counts  []uint64
	version uint64
}

type servingReplayer struct {
	// oracleSet reads g, the reference graph: fed every mutation the
	// system under test applies.
	*oracleSet
	sys     core.Backend
	g       *streamgraph.Graph
	rng     *xrand.RNG
	clients []*servingClient
	v       *ServingVerdict
}

// CheckServingSchedule replays the schedule once through sys — a fresh
// newBackend, to which it adds the result cache — under ctx, with
// subscribers churning, verifying every cached answer and every applied
// frame against the oracle at its reported version.
func CheckServingSchedule(ctx context.Context, s *Schedule, sys core.Backend) ServingVerdict {
	sys.EnableResultCache(servingCacheEntries)
	g := streamgraph.New(s.N, false)
	r := &servingReplayer{
		oracleSet: newOracleSet(g),
		sys:       sys, g: g,
		rng: xrand.New(s.Seed ^ 0xc2b2ae3d27d4eb4f),
		v:   &ServingVerdict{Seed: s.Seed, N: s.N, Ops: len(s.Ops)},
	}
	r.record()
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
	r.v.Diverged = len(r.v.Reasons) > 0
	return *r.v
}

func (r *servingReplayer) diverge(format string, args ...any) {
	if len(r.v.Reasons) < maxReasons {
		r.v.Reasons = append(r.v.Reasons, fmt.Sprintf(format, args...))
	}
}

func (r *servingReplayer) step(ctx context.Context, i int, op Op) {
	switch op.Kind {
	case OpInsert, OpForceFull, OpDelete:
		var (
			rep core.BatchReport
			err error
		)
		if op.Kind == OpDelete {
			rep, err = r.sys.ApplyDeletionsCtx(ctx, op.Edges)
			r.g.DeleteEdges(op.Edges)
		} else {
			rep, err = r.sys.ApplyBatchCtx(ctx, op.Edges)
			r.g.InsertEdges(op.Edges)
		}
		if err != nil {
			r.diverge("serving: op %d mutation: %v", i, err)
			return
		}
		r.record()
		if ref := r.g.Acquire().Version(); rep.Version != ref {
			r.diverge("serving: op %d published v=%d, reference graph at v=%d", i, rep.Version, ref)
		}
		if rep.FramesDropped != 0 {
			r.diverge("serving: op %d dropped %d frames with buffer %d", i, rep.FramesDropped, servingSubBuffer)
		}
		r.drainAll(i)
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
		sub, err := r.sys.SubscribeCtx(ctx, problem, src, servingSubBuffer)
		if err != nil {
			r.diverge("serving: op %d subscribe %s src=%d: %v", i, problem, src, err)
			return
		}
		c := &servingClient{sub: sub}
		r.clients = append(r.clients, c)
		r.v.Subscriptions++
		r.drainClient(c, i) // the snapshot frame
	}
}

func (r *servingReplayer) drainAll(i int) {
	for _, c := range r.clients {
		r.drainClient(c, i)
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

// ServingSummary aggregates a multi-schedule serving run.
type ServingSummary struct {
	Schedules     int      `json:"schedules"`
	Seed          uint64   `json:"seed"`
	CacheHits     int      `json:"cache_hits"`
	Frames        int      `json:"frames"`
	Subscriptions int      `json:"subscriptions"`
	Divergences   int      `json:"divergences"`
	FailingSeeds  []uint64 `json:"failing_seeds,omitempty"`
}

// RunServingMany generates and serving-checks n schedules with the same
// per-schedule seed derivation as RunMany, so the two checkers cover the
// identical workloads through different surfaces. Each schedule runs
// through a newBackend with the given shard count, under ctx.
func RunServingMany(ctx context.Context, n int, seed uint64, shards int, onVerdict func(int, ServingVerdict)) ServingSummary {
	sum := ServingSummary{Schedules: n, Seed: seed}
	for i := 0; i < n; i++ {
		s := Generate(Params{Seed: xrand.Hash64(seed + uint64(i))})
		verdict := CheckServingSchedule(ctx, s, newBackend(s.N, shards))
		sum.CacheHits += verdict.CacheHits
		sum.Frames += verdict.Frames
		sum.Subscriptions += verdict.Subscriptions
		if verdict.Diverged {
			sum.Divergences++
			if len(sum.FailingSeeds) < 32 {
				sum.FailingSeeds = append(sum.FailingSeeds, s.Seed)
			}
		}
		if onVerdict != nil {
			onVerdict(i, verdict)
		}
	}
	return sum
}
