package core_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"tripoline/internal/core"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/streamgraph"
)

// TestQueryCtxDeadlineOnLargeGraph is the acceptance scenario: a user
// query against a ≥1M-edge synthetic graph under a 1ms deadline must
// return an ErrCanceled-wrapping error within 50ms, and the standing
// state must be completely unaffected — subsequent queries and standing
// maintenance behave exactly as if the canceled query never happened.
func TestQueryCtxDeadlineOnLargeGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-edge graph build in -short mode")
	}
	const (
		n = 300_000
		m = 1_200_000
	)
	edges := gen.Uniform(n, m, 64, 99)
	g := streamgraph.New(n, false)
	g.InsertEdges(edges)
	sys := core.NewSystem(g, 2)
	if err := sys.Enable("SSSP"); err != nil {
		t.Fatal(err)
	}

	const src = graph.VertexID(123_457)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := sys.QueryCtx(ctx, "SSSP", src)
	elapsed := time.Since(start)
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("err = %v (res=%v), want ErrCanceled", err, res)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, does not unwrap to context.DeadlineExceeded", err)
	}
	if elapsed > 50*time.Millisecond {
		t.Fatalf("canceled query returned after %v, want <50ms", elapsed)
	}

	// Standing state untouched: the same query without a deadline matches
	// the from-scratch baseline value for value.
	inc, err := sys.Query("SSSP", src)
	if err != nil {
		t.Fatal(err)
	}
	full, err := sys.QueryFull("SSSP", src)
	if err != nil {
		t.Fatal(err)
	}
	for v := range inc.Values {
		if inc.Values[v] != full.Values[v] {
			t.Fatalf("post-cancel Δ/full differ at %d: %d vs %d", v, inc.Values[v], full.Values[v])
		}
	}

	// Standing-query maintenance still works after the canceled query.
	rep, err := sys.ApplyBatchCtx(context.Background(), []graph.Edge{
		{Src: 0, Dst: uint32(n - 1), W: 1},
		{Src: 7, Dst: uint32(n / 2), W: 2},
	})
	if err != nil || rep.BatchEdges != 2 {
		t.Fatalf("ApplyBatchCtx after cancel: rep=%+v err=%v", rep, err)
	}
	inc2, err := sys.Query("SSSP", src)
	if err != nil {
		t.Fatal(err)
	}
	full2, err := sys.QueryFull("SSSP", src)
	if err != nil {
		t.Fatal(err)
	}
	for v := range inc2.Values {
		if inc2.Values[v] != full2.Values[v] {
			t.Fatalf("post-batch Δ/full differ at %d", v)
		}
	}
}

func TestQueryCtxPreCanceled(t *testing.T) {
	g := streamgraph.New(50, false)
	g.InsertEdges(gen.Uniform(50, 400, 8, 5))
	sys := core.NewSystem(g, 2)
	if err := sys.Enable("BFS"); err != nil {
		t.Fatal(err)
	}
	versionBefore := g.Acquire().Version()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.QueryCtx(ctx, "BFS", 3); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("QueryCtx err = %v, want ErrCanceled", err)
	}
	if _, err := sys.QueryFullCtx(ctx, "BFS", 3); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("QueryFullCtx err = %v, want ErrCanceled", err)
	}
	if _, err := sys.QueryManyCtx(ctx, "BFS", []graph.VertexID{1, 2}); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("QueryManyCtx err = %v, want ErrCanceled", err)
	}
	if _, err := sys.ApplyBatchCtx(ctx, []graph.Edge{{Src: 1, Dst: 2, W: 1}}); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("ApplyBatchCtx err = %v, want ErrCanceled", err)
	}
	if _, err := sys.ApplyDeletionsCtx(ctx, []graph.Edge{{Src: 1, Dst: 2, W: 1}}); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("ApplyDeletionsCtx err = %v, want ErrCanceled", err)
	}
	// The rejected mutations must not have produced new graph versions.
	if v := g.Acquire().Version(); v != versionBefore {
		t.Fatalf("canceled mutations advanced version %d -> %d", versionBefore, v)
	}
}

func TestSentinelErrors(t *testing.T) {
	g := streamgraph.New(20, false)
	g.InsertEdges(gen.Uniform(20, 120, 8, 6))
	sys := core.NewSystem(g, 2)
	if err := sys.Enable("BFS"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Enable("NoSuchProblem"); !errors.Is(err, core.ErrUnknownProblem) {
		t.Fatalf("Enable unknown: %v", err)
	}
	if _, err := sys.Query("SSSP", 1); !errors.Is(err, core.ErrUnknownProblem) {
		t.Fatalf("Query not-enabled: %v", err)
	}
	if _, err := sys.Query("BFS", 999); !errors.Is(err, core.ErrSourceOutOfRange) {
		t.Fatalf("Query out-of-range: %v", err)
	}
	if _, err := sys.QueryAtCtx(context.Background(), 1, "BFS", 0); !errors.Is(err, core.ErrNoSuchVersion) {
		t.Fatalf("QueryAt without history: %v", err)
	}
	sys.EnableHistory(2)
	if _, err := sys.QueryAtCtx(context.Background(), 999, "BFS", 0); !errors.Is(err, core.ErrNoSuchVersion) {
		t.Fatalf("QueryAt unknown version: %v", err)
	}
	if _, err := sys.QueryAtCtx(context.Background(), g.Acquire().Version(), "BFS", 0); err != nil {
		t.Fatalf("QueryAt live version: %v", err)
	}
}
