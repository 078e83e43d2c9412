package loadgen

import (
	"context"
	"strings"
	"testing"
	"time"
)

func runTarget(t *testing.T) *Target {
	t.Helper()
	tgt, err := SelfHost(SelfHostConfig{
		Vertices: 512, Edges: 2048, Seed: 13,
		HistoryCapacity: 8, CacheEntries: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tgt.Close)
	return tgt
}

// TestRunQueryHeavySmoke drives the full closed loop against a live
// in-process server: every op key must record traffic, the contract
// check must come back clean, and the report must balance.
func TestRunQueryHeavySmoke(t *testing.T) {
	tgt := runTarget(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sc, ok := ScenarioByName("query-heavy")
	if !ok {
		t.Fatal("scenario query-heavy missing")
	}
	dur := 3 * time.Second
	if testing.Short() {
		dur = 1500 * time.Millisecond
	}
	rep, err := Run(ctx, Config{
		BaseURL:  tgt.URL,
		Scenario: sc,
		Workers:  8,
		RateRPS:  -1, // unpaced
		Duration: dur,
		Seed:     101,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total == 0 {
		t.Fatal("run recorded zero requests")
	}
	if rep.Interrupted {
		t.Fatal("run marked interrupted without cancellation")
	}
	if v := rep.ContractViolations(); len(v) != 0 {
		t.Fatalf("contract violations: %v", v)
	}
	// The dominant ops of the mix must all have seen traffic.
	for _, key := range []string{"query", "stats"} {
		if rep.Ops[key].Count == 0 {
			t.Fatalf("op %q recorded nothing; ops=%v", key, rep.Ops)
		}
	}
	// Per-problem sub-keys exist and don't inflate the total.
	var sum int64
	for k, or := range rep.Ops {
		if !isSubKey(k) {
			sum += or.Count
		}
	}
	if sum != rep.Total {
		t.Fatalf("op counts sum to %d, total is %d", sum, rep.Total)
	}
	if rep.Ops["query"].P50 <= 0 {
		t.Fatalf("query p50 not populated: %+v", rep.Ops["query"])
	}
}

// TestRunInterrupted pins the SIGINT contract: canceling the outer
// context mid-run still yields a complete report, marked interrupted.
func TestRunInterrupted(t *testing.T) {
	tgt := runTarget(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(400 * time.Millisecond)
		cancel()
	}()
	sc, ok := ScenarioByName("query-heavy")
	if !ok {
		t.Fatal("scenario query-heavy missing")
	}
	rep, err := Run(ctx, Config{
		BaseURL:  tgt.URL,
		Scenario: sc,
		Workers:  4,
		RateRPS:  -1,
		Duration: time.Hour, // the cancel, not the duration, ends this run
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Interrupted {
		t.Fatal("report not marked interrupted")
	}
	if rep.Total == 0 {
		t.Fatal("interrupted report lost all recorded requests")
	}
}

// TestRunDrainUnderLoad exercises the drain scenario end to end: the
// drain fires mid-run, the report says so, and post-drain requests see
// the documented 503/draining answers rather than transport failures.
func TestRunDrainUnderLoad(t *testing.T) {
	tgt := runTarget(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sc, ok := ScenarioByName("drain-under-load")
	if !ok {
		t.Fatal("scenario drain-under-load missing")
	}
	rep, err := Run(ctx, Config{
		BaseURL:  tgt.URL,
		Scenario: sc,
		Workers:  6,
		RateRPS:  -1,
		Duration: 2 * time.Second,
		Seed:     77,
		DrainFn:  tgt.Drain,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Drained {
		t.Fatal("drain scenario did not drain")
	}
	var num503 int64
	for k, or := range rep.Ops {
		if isSubKey(k) {
			continue
		}
		num503 += or.Status["503"]
	}
	if num503 == 0 {
		t.Fatalf("no 503s recorded after mid-run drain; ops=%v", rep.Ops)
	}
	if v := rep.ContractViolations(); len(v) != 0 {
		t.Fatalf("contract violations: %v", v)
	}
}

// TestSaturationSweep runs a tiny three-point sweep and sanity-checks
// the curve: points come back in order with traffic at every setting.
func TestSaturationSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep builds three servers")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	sc, ok := ScenarioByName("query-heavy")
	if !ok {
		t.Fatal("scenario query-heavy missing")
	}
	base := SelfHostConfig{Vertices: 256, Edges: 1024, Seed: 21, CacheEntries: 0}
	points, err := SaturationSweep(ctx, base, sc, []int{1, 4, 16}, 8, time.Second, 31, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points", len(points))
	}
	for i, pt := range points {
		if pt.Total == 0 {
			t.Fatalf("point %d recorded no traffic: %+v", i, pt)
		}
	}
	if points[0].MaxInFlight != 1 || points[2].MaxInFlight != 16 {
		t.Fatalf("points out of order: %+v", points)
	}
}

// TestStaleQueryHitShare drives stale=ok reads alone at a cached server
// small enough that (problem, source) pairs repeat and no write moves the
// version: the report must read each response's cache outcome and show a
// nonzero hit share.
func TestStaleQueryHitShare(t *testing.T) {
	tgt, err := SelfHost(SelfHostConfig{Vertices: 16, Seed: 13, CacheEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tgt.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := Run(ctx, Config{
		BaseURL:  tgt.URL,
		Scenario: Scenario{Name: "stale-only", Mix: []OpWeight{{OpQueryStale, 1}}},
		Workers:  2,
		RateRPS:  -1,
		Duration: 500 * time.Millisecond,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	or := rep.Ops["query_stale"]
	if or.CacheChecked == 0 || or.CacheChecked != or.Status["200"] {
		t.Fatalf("cache outcome read on %d responses, %d answered 200", or.CacheChecked, or.Status["200"])
	}
	if or.HitShare() <= 0 {
		t.Fatalf("stale=ok hit share %.3f over %d responses, want > 0", or.HitShare(), or.CacheChecked)
	}
	var buf strings.Builder
	rep.WriteText(&buf)
	if !strings.Contains(buf.String(), "hit=") {
		t.Fatalf("report prints no hit share:\n%s", buf.String())
	}
}
