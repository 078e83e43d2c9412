package check

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"tripoline/internal/core"
	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/shard"
	"tripoline/internal/streamgraph"
	"tripoline/internal/xrand"
)

// Sharded replay: the same generated schedules driven through the serving
// surface (core.Backend), replayed twice — once through a plain
// core.System over the whole graph (the configuration the main checker
// already validates against the oracle) and once through a shard.Router
// with S hash-partitioned shards — and diffed observation by observation
// at the exact version each result reports. The version sequences align
// by construction (the router publishes global version v+1 for every
// admitted batch, exactly like an unsharded system), so any mismatch in
// outcome, version, values, or counts is a router bug: a mis-routed arc, a
// union view that lost a span, or standing state paired with the wrong
// barrier entry.
//
// Fault-seam ops degrade gracefully — the router has no streamgraph
// seam surface, so both replays run OpForceFull as a plain insert, OpEvict
// as a full query, and OpDenyRetain as a Δ-query; cancellations stay
// volatile exactly as in the core replayer.

// newBackend returns the system a schedule is replayed through — a
// core.System over an undirected graph of n vertices, or an S-shard router
// over one when shards > 1 — with every checked problem enabled and
// history on.
func newBackend(n, shards int) core.Backend {
	var b core.Backend
	if shards > 1 {
		b = shard.New(n, false, shards, replayK)
	} else {
		b = core.NewSystem(streamgraph.New(n, false), replayK)
	}
	for _, p := range Problems {
		if err := b.Enable(p); err != nil {
			panic("check: enable " + p + ": " + err.Error())
		}
	}
	b.EnableHistory(historyCap)
	return b
}

// shardReplayer drives one backend through a schedule.
type shardReplayer struct {
	rt       core.Backend
	res      *replayResult
	versions []uint64
}

// replaySharded replays s through a backend with the given shard count
// (newBackend), under ctx.
func replaySharded(ctx context.Context, s *Schedule, shards int) *replayResult {
	r := &shardReplayer{rt: newBackend(s.N, shards), res: &replayResult{}}
	r.record()
	for i, op := range s.Ops {
		r.step(ctx, i, op)
	}
	r.probes(ctx, len(s.Ops)+1)
	return r.res
}

// record notes the current version so OpQueryAt's VerIdx resolves
// identically across the two replays.
func (r *shardReplayer) record() {
	r.versions = append(r.versions, r.rt.Version())
}

func (r *shardReplayer) step(ctx context.Context, i int, op Op) {
	switch op.Kind {
	case OpInsert, OpForceFull:
		// A mutation fails only once ctx is done, and every observation
		// after it then records the cancellation.
		r.rt.ApplyBatchCtx(ctx, op.Edges)
		r.record()
		if op.Kind == OpForceFull {
			r.res.faults.ForceFull++
		}
	case OpDelete:
		r.rt.ApplyDeletionsCtx(ctx, op.Edges)
		r.record()
	case OpQuery, OpDenyRetain:
		res, err := r.rt.QueryCtx(ctx, op.Problem, op.Source)
		if op.Kind == OpDenyRetain {
			r.res.faults.DenyRetain++
		}
		r.observe(i, op, false, res, err, false)
	case OpQueryFull, OpEvict:
		res, err := r.rt.QueryFullCtx(ctx, op.Problem, op.Source)
		if op.Kind == OpEvict {
			r.res.faults.Evicts++
		}
		r.observe(i, op, false, res, err, false)
	case OpQueryAt:
		ver := r.versions[op.VerIdx%len(r.versions)]
		res, err := r.rt.QueryAtCtx(ctx, ver, op.Problem, op.Source)
		r.observe(i, op, false, res, err, false)
	case OpCancel:
		ctx := newCancelCtx(op.Step)
		var (
			res *core.QueryResult
			err error
		)
		if def, _ := core.LookupProblem(op.Problem); def.Base != nil {
			res, err = r.rt.QueryCtx(ctx, op.Problem, op.Source)
		} else {
			res, err = r.rt.QueryFullCtx(ctx, op.Problem, op.Source)
		}
		r.res.faults.Cancels++
		if err != nil && errors.Is(err, engine.ErrCanceled) {
			r.res.faults.CancelsFired++
		}
		r.observe(i, op, false, res, err, true)
	case OpReaders:
		r.readers(ctx, i, op)
	}
}

// readers mirrors replayer.readers: concurrent Δ-queries against the
// live version, each observed in reader order.
func (r *shardReplayer) readers(ctx context.Context, i int, op Op) {
	n := r.rt.NumVertices()
	type outcome struct {
		res *core.QueryResult
		err error
	}
	outs := make([]outcome, op.Readers)
	var wg sync.WaitGroup
	for j := 0; j < op.Readers; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			src := graph.VertexID((int(op.Source) + j) % n)
			res, err := r.rt.QueryCtx(ctx, op.Problem, src)
			outs[j] = outcome{res, err}
		}(j)
	}
	wg.Wait()
	for j, o := range outs {
		opj := op
		opj.Source = graph.VertexID((int(op.Source) + j) % n)
		r.observe(i, opj, false, o.res, o.err, false)
	}
}

// probes issues the same final query matrix as the core replayer.
func (r *shardReplayer) probes(ctx context.Context, opIdx int) {
	n := r.rt.NumVertices()
	sources := []graph.VertexID{0, graph.VertexID(n / 2), graph.VertexID(n - 1)}
	for _, p := range Problems {
		for _, src := range sources {
			res, err := r.rt.QueryCtx(ctx, p, src)
			r.observe(opIdx, Op{Kind: OpQuery, Problem: p, Source: src}, true, res, err, false)
		}
		res, err := r.rt.QueryFullCtx(ctx, p, graph.VertexID(n/3))
		r.observe(opIdx, Op{Kind: OpQueryFull, Problem: p, Source: graph.VertexID(n / 3)}, true, res, err, false)
	}
}

func (r *shardReplayer) observe(i int, op Op, probe bool, res *core.QueryResult, err error, volatileObs bool) {
	obs := observation{
		op: i, kind: op.Kind, probe: probe,
		problem: op.Problem, source: op.Source, volatile: volatileObs,
	}
	switch {
	case err == nil:
		obs.outcome = "ok"
		obs.version = res.Version
		obs.values = res.Values
		obs.counts = res.Counts
	case errors.Is(err, engine.ErrCanceled):
		obs.outcome = "canceled"
	case errors.Is(err, core.ErrSourceOutOfRange):
		obs.outcome = "bad-source"
	case errors.Is(err, core.ErrNoSuchVersion):
		obs.outcome = "no-version"
	default:
		obs.outcome = "error"
	}
	r.res.obs = append(r.res.obs, obs)
}

// CheckShardedSchedule replays one schedule through a core.System and an
// S-shard router and diffs every non-volatile observation — outcome,
// reported version, values, counts (PageRank within tolerance, everything
// else bit for bit).
func CheckShardedSchedule(ctx context.Context, s *Schedule, shards int) Verdict {
	base := replaySharded(ctx, s, 1)
	v := Verdict{Seed: s.Seed, N: s.N, Ops: len(s.Ops), Queries: len(base.obs), Faults: base.faults}
	shd := replaySharded(ctx, s, shards)
	reasons := compareObs(base, shd, fmt.Sprintf("sharded-S%d-vs-system", shards), cmpCfg{})
	if len(reasons) > maxReasons {
		reasons = reasons[:maxReasons]
	}
	v.Reasons = reasons
	v.Diverged = len(reasons) > 0
	return v
}

// RunShardedMany generates and sharded-checks n schedules with the same
// seed derivation as RunMany, so a master seed names the same workloads
// for both checkers. ctx reaches every call into the replayed systems.
func RunShardedMany(ctx context.Context, n int, seed uint64, shards int, onVerdict func(int, Verdict)) Summary {
	sum := Summary{Schedules: n, Seed: seed}
	for i := 0; i < n; i++ {
		s := Generate(Params{Seed: xrand.Hash64(seed + uint64(i))})
		verdict := CheckShardedSchedule(ctx, s, shards)
		sum.Queries += verdict.Queries
		sum.Faults.add(verdict.Faults)
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
