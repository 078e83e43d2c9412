package engine_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/props"
)

// chainCSR builds a path 0-1-2-...-(n-1): the worst case for superstep
// count (diameter n), so a push evaluation has n tiny supersteps and a
// deadline reliably fires mid-convergence.
func chainCSR(n int, t *testing.T) *graph.CSR {
	t.Helper()
	edges := make([]graph.Edge, 0, n-1)
	for v := 0; v < n-1; v++ {
		edges = append(edges, graph.Edge{Src: uint32(v), Dst: uint32(v + 1), W: 1})
	}
	return graph.FromEdges(n, edges, true)
}

func TestRunPushCtxCancelsMidConvergence(t *testing.T) {
	g := chainCSR(200_000, t)
	// The diameter-200k chain needs ~200k supersteps; cut it off after 64.
	ctx := engine.NewConsultCtx(64)
	start := time.Now()
	st, stats, err := engine.RunCtx(ctx, g, props.BFS{}, []graph.VertexID{0})
	elapsed := time.Since(start)
	if !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, does not unwrap to DeadlineExceeded", err)
	}
	var ce *engine.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err %T is not *CanceledError", err)
	}
	if ce.Iterations != stats.Iterations {
		t.Fatalf("CanceledError.Iterations=%d, stats=%d", ce.Iterations, stats.Iterations)
	}
	// Promptness: a few dozen one-vertex supersteps, not 200k of them.
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
	if stats.Iterations == 0 || stats.Iterations >= 200_000 {
		t.Fatalf("iterations = %d, want partial progress", stats.Iterations)
	}
	// The partial values are sound: monotone non-decreasing BFS levels
	// along the chain, unreached beyond the cancellation wavefront.
	reached := 0
	for v := 0; v < st.N; v++ {
		if st.Values[v] == props.Unreached {
			break
		}
		if st.Values[v] != uint64(v) {
			t.Fatalf("partial level[%d]=%d, want %d", v, st.Values[v], v)
		}
		reached++
	}
	if reached < 2 || reached >= st.N {
		t.Fatalf("wavefront reached %d vertices, want partial progress", reached)
	}
}

// TestRunPushAfterCancelIsClean: a canceled run abandons its (dirty)
// pooled scratch; subsequent evaluations must still be correct.
func TestRunPushAfterCancelIsClean(t *testing.T) {
	g := chainCSR(50_000, t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: zero supersteps run
	st := engine.NewState(props.BFS{}, g.NumVertices(), 1)
	st.SetSource(0, 0)
	stats, err := st.RunPushCtx(ctx, g, []graph.VertexID{0}, []uint64{1})
	if !errors.Is(err, engine.ErrCanceled) || stats.Iterations != 0 {
		t.Fatalf("pre-canceled run: stats=%+v err=%v", stats, err)
	}
	// A fresh, uncanceled run over the same pool converges exactly.
	st2, _ := engine.Run(g, props.BFS{}, []graph.VertexID{0})
	for v := 0; v < st2.N; v++ {
		if st2.Values[v] != uint64(v) {
			t.Fatalf("post-cancel run wrong at %d: %d", v, st2.Values[v])
		}
	}
}

func TestRunPushCtxBackgroundMatchesRunPush(t *testing.T) {
	g := chainCSR(1000, t)
	st, stats, err := engine.RunCtx(context.Background(), g, props.BFS{}, []graph.VertexID{0})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Iterations == 0 {
		t.Fatal("no work recorded")
	}
	for v := 0; v < st.N; v++ {
		if st.Values[v] != uint64(v) {
			t.Fatalf("level[%d]=%d", v, st.Values[v])
		}
	}
}
