package check

import (
	"fmt"
	"math"

	"tripoline/internal/xrand"
)

// Options configures a check run.
type Options struct {
	// CorruptDelta arms the streamgraph skew seam in every replay: each delta-patched mirror build silently corrupts one arc.
	// This is the checker's self-test — a harness that cannot catch a
	// deliberately broken delta patch validates nothing — and the
	// acceptance gate requires the resulting divergence to dd-minimize to
	// a handful of ops.
	CorruptDelta bool
}

// Verdict is the deterministic outcome of checking one schedule: same
// schedule, same code, same verdict (the informational *Fired fault
// counts excepted — see FaultCounts).
type Verdict struct {
	Seed     uint64      `json:"seed"`
	N        int         `json:"n"`
	Ops      int         `json:"ops"`
	Queries  int         `json:"queries"`
	Diverged bool        `json:"diverged"`
	Reasons  []string    `json:"reasons,omitempty"`
	Faults   FaultCounts `json:"faults"`
}

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

// CheckSchedule replays the schedule four ways and returns the combined
// verdict:
//
//   - base: every successful result verified against the sequential CSR
//     oracle, materialized from the C-tree, for the version it reports —
//     the proof that the mirrors the system evaluates over match the tree
//     they mirror (the CorruptDelta self-test shows it bites);
//   - shuffle: each batch's edges permuted — insertion-order invariance;
//   - split: each insert batch applied as two sub-batches — batch-split
//     invariance (compared on everything but version numbering);
//   - delete-reinsert: after the last op, half the surviving edges are
//     deleted and reinserted — the probe matrix must still agree.
func CheckSchedule(s *Schedule, opts Options) Verdict {
	corrupt := opts.CorruptDelta
	base := replay(s, variant{name: "base", corrupt: corrupt})
	v := Verdict{Seed: s.Seed, N: s.N, Ops: len(s.Ops), Queries: len(base.obs), Faults: base.faults}
	reasons := append([]string(nil), base.divergences...)

	shuffle := replay(s, variant{name: "shuffle", shuffle: true, corrupt: corrupt})
	reasons = append(reasons, shuffle.divergences...)
	reasons = append(reasons, compareObs(base, shuffle, "shuffle", cmpCfg{})...)

	split := replay(s, variant{name: "split", split: 2, corrupt: corrupt})
	reasons = append(reasons, split.divergences...)
	reasons = append(reasons, compareObs(base, split, "split", cmpCfg{skipQueryAt: true, skipVersions: true})...)

	delre := replay(s, variant{name: "delre", deleteReinsert: true, corrupt: corrupt})
	reasons = append(reasons, delre.divergences...)
	reasons = append(reasons, compareObs(base, delre, "delete-reinsert", cmpCfg{skipProbeVersion: true})...)

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
func compareObs(base, other *replayResult, label string, cfg cmpCfg) []string {
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
	Schedules    int         `json:"schedules"`
	Seed         uint64      `json:"seed"`
	Queries      int         `json:"queries"`
	Divergences  int         `json:"divergences"`
	FailingSeeds []uint64    `json:"failing_seeds,omitempty"`
	Faults       FaultCounts `json:"faults"`
}

// RunMany generates and checks n schedules whose per-schedule seeds are
// derived from seed (so one master seed names the whole run), invoking
// onVerdict (if non-nil) after each. The derivation is Hash64-based:
// schedule i's workload is unrelated to schedule i+1's beyond the master
// seed, and re-running with the same arguments replays identical work.
func RunMany(n int, seed uint64, opts Options, onVerdict func(int, Verdict)) Summary {
	sum := Summary{Schedules: n, Seed: seed}
	for i := 0; i < n; i++ {
		s := Generate(Params{Seed: xrand.Hash64(seed + uint64(i))})
		verdict := CheckSchedule(s, opts)
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
