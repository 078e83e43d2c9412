package core_test

import (
	"slices"
	"sync"
	"testing"

	"tripoline/internal/core"
	"tripoline/internal/engine"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/oracle"
	"tripoline/internal/props"
	"tripoline/internal/streamgraph"
)

func TestRecordQueriesAndReselect(t *testing.T) {
	edges := gen.Uniform(150, 1200, 8, 121)
	g := streamgraph.New(150, false)
	g.InsertEdges(edges)
	sys := newSystem(t, g, "SSSP")

	if sys.QueryHistogramTotal() != 0 {
		t.Fatal("histogram non-empty before recording")
	}
	sys.RecordQueries(true)
	for i := 0; i < 10; i++ {
		if _, err := sys.Query("SSSP", 42); err != nil {
			t.Fatal(err)
		}
	}
	if sys.QueryHistogramTotal() != 10 {
		t.Fatalf("recorded %d, want 10", sys.QueryHistogramTotal())
	}

	if err := sys.ReselectRoots("SSSP"); err != nil {
		t.Fatal(err)
	}
	// After reselection, queries remain exactly correct.
	csr := g.Acquire().CSR(false)
	res, err := sys.Query("SSSP", 42)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.BestPath(csr, props.SSSP{}, 42)
	for v := range want {
		if res.Values[v] != want[v] {
			t.Fatalf("post-reselect query wrong at %d", v)
		}
	}

	sys.RecordQueries(false)
	if sys.QueryHistogramTotal() != 0 {
		t.Fatal("histogram survived disable")
	}
}

func TestReselectErrors(t *testing.T) {
	g := streamgraph.New(10, true)
	g.InsertEdges([]graph.Edge{{Src: 0, Dst: 1, W: 1}})
	sys := newSystem(t, g, "PageRank")
	if err := sys.ReselectRoots("SSSP"); err == nil {
		t.Fatal("disabled problem accepted")
	}
	if err := sys.ReselectRoots("PageRank"); err == nil {
		t.Fatal("rootless problem accepted")
	}
}

func TestReselectWithoutHistoryEqualsTopDegree(t *testing.T) {
	edges := gen.Uniform(100, 900, 8, 123)
	g := streamgraph.New(100, false)
	g.InsertEdges(edges)
	sys := newSystem(t, g, "SSWP")
	// No recording: reselection is still valid (top-degree roots).
	if err := sys.ReselectRoots("SSWP"); err != nil {
		t.Fatal(err)
	}
	inc, err := sys.Query("SSWP", 7)
	if err != nil {
		t.Fatal(err)
	}
	full, err := sys.QueryFull("SSWP", 7)
	if err != nil {
		t.Fatal(err)
	}
	for v := range full.Values {
		if inc.Values[v] != full.Values[v] {
			t.Fatalf("post-reselect Δ/full differ at %d", v)
		}
	}
}

// TestReselectUnderLoad alternates ReselectRoots with small batches while
// query goroutines and one SSSP subscriber run. Reselection re-roots from
// the recorded queries and rebuilds the set under the apply token, as a
// batch maintains it. Every answer a reader got must equal the oracle's at
// the answer's version, and at the end the subscriber's frames must
// reproduce the oracle's answer at the latest version.
func TestReselectUnderLoad(t *testing.T) {
	const n, base, batch, rounds = 200, 1600, 100, 8
	edges := gen.Uniform(n, base+batch*rounds, 8, 131)
	problems := map[string]engine.Problem{"SSSP": props.SSSP{}, "SSWP": props.SSWP{}}
	hot := []graph.VertexID{3, 17, 101, 102, 150}
	t.Run("S=1", func(t *testing.T) {
		g := streamgraph.New(n, true)
		g.InsertEdges(edges[:base])
		sys := core.NewSystem(g, 8)
		for name := range problems {
			if err := sys.Enable(name); err != nil {
				t.Fatal(err)
			}
		}
		sys.RecordQueries(true)
		first, err := sys.Query("SSSP", 0)
		if err != nil {
			t.Fatal(err)
		}
		// prefix maps a version to the number of edges it holds.
		prefix := map[uint64]int{first.Version: base}
		// Room for every frame, so none is dropped: the last batch's
		// frame is the one the client ends on.
		sub, err := sys.Subscribe("SSSP", 17, rounds+1)
		if err != nil {
			t.Fatal(err)
		}
		var frames []core.ResultFrame
		var results [3][]*core.QueryResult
		stop := make(chan struct{})
		var readers, subscriber sync.WaitGroup
		subscriber.Add(1)
		go func() {
			defer subscriber.Done()
			for f := range sub.Frames() {
				frames = append(frames, f)
			}
		}()
		for w := range results {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					name := "SSSP"
					if i%3 == 2 {
						name = "SSWP"
					}
					res, err := sys.Query(name, hot[(w+i)%len(hot)])
					if err != nil {
						t.Error(err)
						return
					}
					results[w] = append(results[w], res)
				}
			}()
		}
		latest := first.Version
		for r := range rounds {
			if err := sys.ReselectRoots("SSSP"); err != nil {
				t.Fatal(err)
			}
			end := base + batch*(r+1)
			latest = sys.ApplyBatch(edges[end-batch : end]).Version
			prefix[latest] = end
		}
		close(stop)
		readers.Wait()
		sys.Unsubscribe(sub)
		subscriber.Wait()
		if sys.QueryHistogramTotal() == 0 {
			t.Fatal("no query was recorded for reselection")
		}

		type key struct {
			version uint64
			name    string
			u       graph.VertexID
		}
		want := map[key][]uint64{}
		oracleAt := func(version uint64, name string, u graph.VertexID) []uint64 {
			k := key{version, name, u}
			if _, ok := want[k]; !ok {
				end, ok := prefix[version]
				if !ok {
					t.Fatalf("an answer at unknown version %d", version)
				}
				want[k] = oracle.BestPath(graph.FromEdges(n, edges[:end], true), problems[name], u)
			}
			return want[k]
		}
		answers := 0
		for _, rs := range results {
			for _, res := range rs {
				if !slices.Equal(res.Values, oracleAt(res.Version, res.Problem, res.Source)) {
					t.Fatalf("%s(%d) at version %d differs from the oracle", res.Problem, res.Source, res.Version)
				}
				answers++
			}
		}
		client := &subClient{}
		for _, f := range frames {
			client.apply(t, f)
		}
		if client.version != latest || !slices.Equal(client.values, oracleAt(latest, "SSSP", 17)) {
			t.Fatalf("subscriber at version %d differs from the oracle at version %d", client.version, latest)
		}
		t.Logf("%d answers checked, %d frames", answers, len(frames))
	})
}
