package core_test

import (
	"context"
	"testing"

	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/streamgraph"
)

func TestQueryManyMatchesSingleQueries(t *testing.T) {
	edges := gen.Uniform(160, 1500, 8, 101)
	g := streamgraph.New(160, true)
	g.InsertEdges(edges)
	sys := newSystem(t, g, "SSSP", "SSWP")

	sources := []graph.VertexID{3, 9, 42, 77, 120, 159}
	for _, problem := range []string{"SSSP", "SSWP"} {
		multi, err := sys.QueryManyCtx(context.Background(), problem, sources)
		if err != nil {
			t.Fatal(err)
		}
		if multi.Width != len(sources) {
			t.Fatalf("width=%d", multi.Width)
		}
		for j, u := range sources {
			single, err := sys.Query(problem, u)
			if err != nil {
				t.Fatal(err)
			}
			for v := 0; v < 160; v++ {
				if multi.Value(graph.VertexID(v), j) != single.Values[v] {
					t.Fatalf("%s: batched query %d differs from single at %d",
						problem, j, v)
				}
			}
			if multi.Slots[j] < 0 || multi.PropURs[j] == 0 && problem == "SSSP" {
				// propUR 0 for SSSP would mean u is a standing root itself,
				// which these sources are not.
				t.Fatalf("%s: slot/propUR not recorded for query %d", problem, j)
			}
		}
	}
}

func TestQueryManySharedWork(t *testing.T) {
	edges := gen.Uniform(200, 2400, 8, 103)
	g := streamgraph.New(200, false)
	g.InsertEdges(edges)
	sys := newSystem(t, g, "SSSP")

	sources := []graph.VertexID{5, 17, 33, 64, 99, 130, 150, 190}
	multi, err := sys.QueryManyCtx(context.Background(), "SSSP", sources)
	if err != nil {
		t.Fatal(err)
	}
	var singleActs int64
	for _, u := range sources {
		res, err := sys.Query("SSSP", u)
		if err != nil {
			t.Fatal(err)
		}
		singleActs += res.Stats.Activations
	}
	// Batch-mode activations count per (vertex, query) pair, so total
	// logical work is the same; the benefit is coalescing. The sanity
	// check is that the batch does not blow work up.
	if multi.Stats.Activations > singleActs*3/2 {
		t.Fatalf("batched activations %d far exceed %d", multi.Stats.Activations, singleActs)
	}
}

func TestQueryManyDuplicateSources(t *testing.T) {
	edges := gen.Uniform(80, 700, 8, 107)
	g := streamgraph.New(80, false)
	g.InsertEdges(edges)
	sys := newSystem(t, g, "SSWP")
	multi, err := sys.QueryManyCtx(context.Background(), "SSWP", []graph.VertexID{7, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 80; v++ {
		if multi.Value(graph.VertexID(v), 0) != multi.Value(graph.VertexID(v), 1) {
			t.Fatalf("duplicate source slots diverge at %d", v)
		}
	}
}

func TestQueryManyErrors(t *testing.T) {
	g := streamgraph.New(10, true)
	g.InsertEdges([]graph.Edge{{Src: 0, Dst: 1, W: 1}})
	sys := newSystem(t, g, "SSSP", "PageRank")
	if _, err := sys.QueryManyCtx(context.Background(), "SSSP", nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := sys.QueryManyCtx(context.Background(), "Nope", []graph.VertexID{0}); err == nil {
		t.Fatal("unknown problem accepted")
	}
	if _, err := sys.QueryManyCtx(context.Background(), "PageRank", []graph.VertexID{0}); err == nil {
		t.Fatal("whole-graph problem accepted for batching")
	}
	big := make([]graph.VertexID, 65)
	if _, err := sys.QueryManyCtx(context.Background(), "SSSP", big); err == nil {
		t.Fatal("65-wide batch accepted")
	}
}
