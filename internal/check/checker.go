package check

import (
	"context"
	"fmt"
	"math"

	"tripoline/internal/xrand"
)

// Options configures a check run.
type Options struct {
	// CorruptDelta arms the streamgraph skew seam in every replay of the
	// query surface: each delta-patched mirror build silently corrupts one
	// arc. This is the checker's self-test — a harness that cannot catch a
	// deliberately broken delta patch validates nothing — and the
	// acceptance gate requires the resulting divergence to dd-minimize to
	// a handful of ops. The serving replay has no store seam to arm.
	CorruptDelta bool
	// CorruptTranspose arms the streamgraph transpose skew seam in every
	// replay of the query surface: each publish silently corrupts one arc
	// of the transpose. Only a directed schedule's reversed standing
	// queries read a transpose, so this self-test bites on directed
	// schedules alone.
	CorruptTranspose bool
	// Serving replays against the serving surface (result cache and
	// subscriptions) instead of the query surface.
	Serving bool
}

// Verdict is the deterministic outcome of checking one schedule: same
// schedule, same code, same verdict (the informational *Fired fault
// counts and Verified excepted — see FaultCounts).
type Verdict struct {
	Seed    uint64 `json:"seed"`
	N       int    `json:"n"`
	Ops     int    `json:"ops"`
	Queries int    `json:"queries"`
	// Verified counts the answers compared with the oracle across every
	// replay; a cancellation that fires leaves nothing to verify, so it
	// moves with engine scheduling like the *Fired counts.
	Verified int         `json:"verified"`
	Diverged bool        `json:"diverged"`
	Reasons  []string    `json:"reasons,omitempty"`
	Faults   FaultCounts `json:"faults"`
	// The serving replay's counters.
	CacheHits     int `json:"cache_hits,omitempty"`
	Frames        int `json:"frames,omitempty"`
	Subscriptions int `json:"subscriptions,omitempty"`
	// FramesDropped counts the frames lossy subscribers missed.
	FramesDropped int `json:"frames_dropped,omitempty"`
}

// corruption names the skew seams a replay arms.
type corruption struct{ delta, transpose bool }

// cmpCfg tunes a cross-variant comparison for variants whose version
// numbering legitimately shifts.
type cmpCfg struct {
	// skipQueryAt drops historical-query observations: the split variant
	// publishes more versions, so a VerIdx resolves to a different graph.
	skipQueryAt bool
	// skipVersions ignores reported versions entirely (split: same graph
	// content at every op boundary, different version numbers).
	skipVersions bool
	// skipProbeVersion ignores versions only on probe observations
	// (delete-reinsert: two extra mutations after the last op).
	skipProbeVersion bool
}

// CheckSchedule checks one schedule under ctx and returns the combined
// verdict. With opts.Serving it is the serving replay (see serving.go);
// otherwise the schedule is replayed four ways, each through a fresh
// System, and every successful result of every replay is verified
// against the oracle — a from-scratch sequential recomputation on a
// reference graph fed the same mutations — at the version it reports:
//
//   - base: batches as written (the CorruptDelta and CorruptTranspose
//     self-tests show the oracle bites);
//   - shuffle: each batch's edges permuted — insertion-order invariance;
//   - split: each insert batch applied as two sub-batches — batch-split
//     invariance (compared on everything but version numbering);
//   - delete-reinsert: after the last op, half the surviving edges are
//     deleted and reinserted — the probe matrix must still agree.
//
// Every replay but the base is also compared with the base.
func CheckSchedule(ctx context.Context, s *Schedule, opts Options) Verdict {
	if opts.Serving {
		return checkServing(ctx, s)
	}
	corrupt := corruption{delta: opts.CorruptDelta, transpose: opts.CorruptTranspose}
	base := replay(ctx, s, variant{name: "base", corrupt: corrupt})
	v := Verdict{Seed: s.Seed, N: s.N, Ops: len(s.Ops), Queries: len(base.obs), Verified: base.verified, Faults: base.faults}
	reasons := append([]string(nil), base.reasons...)
	others := []variant{
		{name: "shuffle", shuffle: true, corrupt: corrupt},
		{name: "split", split: true, corrupt: corrupt, cmp: cmpCfg{skipQueryAt: true, skipVersions: true}},
		{name: "delete-reinsert", deleteReinsert: true, corrupt: corrupt, cmp: cmpCfg{skipProbeVersion: true}},
	}
	for _, o := range others {
		r := replay(ctx, s, o)
		v.Verified += r.verified
		reasons = append(reasons, r.reasons...)
		reasons = append(reasons, compareObs(base, r)...)
	}
	if len(reasons) > maxReasons {
		reasons = reasons[:maxReasons]
	}
	v.Reasons = reasons
	v.Diverged = len(reasons) > 0
	return v
}

// compareObs cross-checks two replays of the same schedule observation
// by observation. Volatile observations (cancellations) are skipped —
// whether a cancellation fires before convergence depends on engine
// scheduling, and both outcomes are individually verified against the
// oracle when they complete.
func compareObs(base, other *replayer) []string {
	label, cfg := other.v.name, other.v.cmp
	var out []string
	add := func(format string, args ...any) {
		if len(out) < maxReasons {
			out = append(out, fmt.Sprintf(format, args...))
		}
	}
	if len(base.obs) != len(other.obs) {
		add("%s: %d vs %d observations", label, len(base.obs), len(other.obs))
		return out
	}
	for i := range base.obs {
		a, b := &base.obs[i], &other.obs[i]
		if a.volatile || b.volatile {
			continue
		}
		if cfg.skipQueryAt && a.kind == OpQueryAt {
			continue
		}
		where := fmt.Sprintf("%s: op %d %s src=%d", label, a.op, a.problem, a.source)
		if a.outcome != b.outcome {
			add("%s: outcome %q vs %q", where, a.outcome, b.outcome)
			continue
		}
		if a.outcome != "ok" {
			continue
		}
		if !cfg.skipVersions && !(cfg.skipProbeVersion && a.probe) && a.version != b.version {
			add("%s: version %d vs %d", where, a.version, b.version)
			continue
		}
		if msg := valuesDiffer(a, b); msg != "" {
			add("%s: %s", where, msg)
		}
	}
	return out
}

// valuesDiffer compares two successful results for the same query.
// PageRank is tolerance-compared (both replays approximate the same
// fixpoint, each within the convergence bound); everything else is an
// exact fixpoint and must match bit for bit.
func valuesDiffer(a, b *observation) string {
	if len(a.values) != len(b.values) || len(a.counts) != len(b.counts) {
		return fmt.Sprintf("shape %d/%d vs %d/%d values/counts",
			len(a.values), len(a.counts), len(b.values), len(b.counts))
	}
	if a.problem == "PageRank" {
		for x := range a.values {
			av, bv := math.Float64frombits(a.values[x]), math.Float64frombits(b.values[x])
			if math.Abs(av-bv) > prTolerance {
				return fmt.Sprintf("rank[%d] %g vs %g", x, av, bv)
			}
		}
		return ""
	}
	for x := range a.values {
		if a.values[x] != b.values[x] {
			return fmt.Sprintf("value[%d] %d vs %d", x, a.values[x], b.values[x])
		}
	}
	for x := range a.counts {
		if a.counts[x] != b.counts[x] {
			return fmt.Sprintf("count[%d] %d vs %d", x, a.counts[x], b.counts[x])
		}
	}
	return ""
}

// Summary aggregates a multi-schedule run (the CLI's JSON output).
type Summary struct {
	Schedules int `json:"schedules"`
	// Directed and Undirected split Schedules by the graph they replay.
	Directed      int         `json:"directed"`
	Undirected    int         `json:"undirected"`
	Seed          uint64      `json:"seed"`
	Queries       int         `json:"queries"`
	Verified      int         `json:"verified"`
	Divergences   int         `json:"divergences"`
	FailingSeeds  []uint64    `json:"failing_seeds,omitempty"`
	Faults        FaultCounts `json:"faults"`
	CacheHits     int         `json:"cache_hits,omitempty"`
	Frames        int         `json:"frames,omitempty"`
	Subscriptions int         `json:"subscriptions,omitempty"`
	FramesDropped int         `json:"frames_dropped,omitempty"`
}

// RunMany generates and checks n schedules under ctx, whose per-schedule
// seeds are derived from seed (so one master seed names the whole run,
// whatever the Options), invoking onVerdict (if non-nil) after each. The
// derivation is Hash64-based: schedule i's workload is unrelated to
// schedule i+1's beyond the master seed, and re-running with the same
// arguments replays identical work.
func RunMany(ctx context.Context, n int, seed uint64, opts Options, onVerdict func(int, Verdict)) Summary {
	sum := Summary{Schedules: n, Seed: seed}
	for i := 0; i < n; i++ {
		s := Generate(Params{Seed: xrand.Hash64(seed + uint64(i))})
		verdict := CheckSchedule(ctx, s, opts)
		if s.Directed {
			sum.Directed++
		} else {
			sum.Undirected++
		}
		sum.Queries += verdict.Queries
		sum.Verified += verdict.Verified
		sum.Faults.add(verdict.Faults)
		sum.CacheHits += verdict.CacheHits
		sum.Frames += verdict.Frames
		sum.Subscriptions += verdict.Subscriptions
		sum.FramesDropped += verdict.FramesDropped
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
