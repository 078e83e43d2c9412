package core_test

import (
	"reflect"
	"slices"
	"testing"

	"tripoline/internal/core"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/streamgraph"
)

// TestEnableNarrowsByMeet: Enable and ReselectRoots narrow each standing
// set to the roots its meet keeps over the sample, the same over a
// preloaded graph and over one loaded by a batch, and every query over a
// narrowed set is still exact. At this shape
// (directed R-MAT, 2^10 vertices, average degree 8, K=16) the SSWP set
// keeps 5 roots and the SSNP set 4; the SSSP set (shared with Radii) and
// the BFS set (shared with SSNSP) keep all 16.
func TestEnableNarrowsByMeet(t *testing.T) {
	const logN, k = 10, 16
	n := 1 << logN
	cfg := gen.Config{LogN: logN, AvgDegree: 8, Directed: true, MaxWeight: 16, Seed: 2477}
	stream := gen.MakeStream(n, gen.RMAT(cfg), true, 0.8, 400, cfg.Seed)
	problems := []string{"SSSP", "Radii", "BFS", "SSNSP", "SSWP", "SSNP"}
	enable := func(sys *core.System) *core.System {
		for _, p := range problems {
			if err := sys.Enable(p); err != nil {
				t.Fatal(err)
			}
		}
		return sys
	}
	build := func(edges ...[]graph.Edge) *core.System {
		sys := core.NewSystem(streamgraph.New(n, true), k)
		for _, batch := range edges {
			sys.ApplyBatch(batch)
		}
		return enable(sys)
	}
	g := streamgraph.New(n, true)
	g.InsertEdges(stream.Initial)
	one := enable(core.NewSystem(g, k))
	loaded := build(stream.Initial)

	widths := map[string]int{}
	for _, base := range []string{"SSSP", "BFS", "SSWP", "SSNP"} {
		set := setOf(t, one, base)
		w := len(set.Roots)
		widths[base] = w
		if set.Forward.K != w || set.Reverse.K != w {
			t.Fatalf("%s: %d roots over Forward width %d, Reverse width %d", base, w, set.Forward.K, set.Reverse.K)
		}
		if got := setOf(t, loaded, base).Roots; !slices.Equal(got, set.Roots) {
			t.Fatalf("%s: loaded by a batch, narrowed to roots %v; preloaded, to %v", base, got, set.Roots)
		}
	}
	if widths["SSSP"] != k || widths["BFS"] != k || widths["SSWP"] >= k || widths["SSNP"] >= k {
		t.Fatalf("kept widths %v: want SSSP and BFS at %d, SSWP and SSNP narrower", widths, k)
	}

	requireExact := func(label string, sys *core.System) {
		t.Helper()
		for _, name := range problems {
			for v := 1; v < n; v += 37 {
				u := graph.VertexID(v)
				inc, err := sys.Query(name, u)
				if err != nil {
					t.Fatal(err)
				}
				full, err := sys.QueryFull(name, u)
				if err != nil {
					t.Fatal(err)
				}
				if inc.Width != full.Width || inc.Radius != full.Radius ||
					!reflect.DeepEqual(inc.Values, full.Values) || !reflect.DeepEqual(inc.Counts, full.Counts) {
					t.Fatalf("%s: %s(%d) over the narrowed set differs from QueryFull", label, name, u)
				}
			}
		}
	}
	requireExact("preloaded", one)
	requireExact("loaded", loaded)

	// After a batch, re-rooting each set re-applies the rule: without a
	// recorded history the roots are a fresh system's, narrowed the same.
	for _, sys := range []*core.System{one, loaded} {
		sys.ApplyBatch(stream.Batches[0])
	}
	fresh := build(stream.Initial, stream.Batches[0])
	for _, name := range []string{"Radii", "BFS", "SSWP", "SSNP"} {
		base := baseOf(name)
		want := setOf(t, fresh, base).Roots
		for label, sys := range map[string]*core.System{"preloaded": one, "loaded": loaded} {
			if err := sys.ReselectRoots(name); err != nil {
				t.Fatal(err)
			}
			set := setOf(t, sys, base)
			if !slices.Equal(set.Roots, want) || set.Forward.K != len(want) || set.Reverse.K != len(want) {
				t.Fatalf("%s: reselecting %s left roots %v (width %d), a fresh system narrows to %v",
					label, name, set.Roots, set.Forward.K, want)
			}
		}
	}
	if w := len(setOf(t, one, "SSWP").Roots); w >= k {
		t.Fatalf("the reselected SSWP set keeps %d roots", w)
	}
	for label, sys := range map[string]*core.System{"preloaded": one, "loaded": loaded} {
		requireExact(label+" reselected", sys)
	}
}
