package loadgen

import (
	"context"
	"testing"
	"time"

	"tripoline/internal/xrand"
)

// TestConformanceCoreVsSharded replays the seeded trace against S=1 and
// S=4 and requires zero divergences: same status codes, same error
// envelope codes, same X-Tripoline-Version, bit-identical answer hashes —
// subscription snapshots included. The trace is long enough that every op
// family appears, both subscribe modes among them.
func TestConformanceCoreVsSharded(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cfg := ConformanceConfig{Vertices: 512, Edges: 2048, Shards: 4, Steps: 200, Seed: 7}
	if testing.Short() {
		cfg = ConformanceConfig{Vertices: 256, Edges: 1024, Shards: 4, Steps: 60, Seed: 7}
	}
	rep, err := RunConformance(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.Divergences {
		t.Errorf("divergence: %s", d)
	}
	// A trace that never subscribed proves nothing about subscriptions.
	tr := &tracer{rng: xrand.New(cfg.Seed), vertices: cfg.Vertices, problems: conformanceProblems}
	ops := map[string]int{}
	for i := 0; i < cfg.Steps; i++ {
		ops[tr.next().op]++
	}
	if ops["subscribe"] == 0 || ops["poll"] == 0 {
		t.Fatalf("trace exercised %d SSE and %d long-poll subscribes, want both", ops["subscribe"], ops["poll"])
	}
	t.Logf("conformance: %d steps (%d SSE, %d long-poll subscribes), %d divergences", rep.Steps, ops["subscribe"], ops["poll"], len(rep.Divergences))
}

// TestConformanceSeedStability pins determinism: the same seed must
// produce the same divergence profile twice in a row.
func TestConformanceSeedStability(t *testing.T) {
	if testing.Short() {
		t.Skip("two full conformance runs")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cfg := ConformanceConfig{Vertices: 256, Edges: 1024, Shards: 2, Steps: 60, Seed: 11}
	a, err := RunConformance(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunConformance(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Divergences) != len(b.Divergences) {
		t.Fatalf("same seed, different profile: %d vs %d divergences", len(a.Divergences), len(b.Divergences))
	}
}

// TestProbeAdmission pins the saturation contract on every gated
// endpoint: a full gate answers 429 with Retry-After — on the unsharded
// core and behind the sharded router alike.
func TestProbeAdmission(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, shards := range []int{1, 4} {
		violations, err := ProbeAdmission(ctx, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for _, v := range violations {
			t.Errorf("shards=%d: %s", shards, v)
		}
	}
}
