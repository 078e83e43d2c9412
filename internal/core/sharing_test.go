package core_test

import (
	"context"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"tripoline/internal/core"
	"tripoline/internal/engine"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/oracle"
	"tripoline/internal/props"
	"tripoline/internal/standing"
	"tripoline/internal/streamgraph"
)

// shareStep is one step of a sharing schedule: enable a problem, or apply
// mutation mut (an index into shareFixture.muts).
type shareStep struct {
	enable string
	mut    int
}

// shareFixture is the graph history every system of one sharing schedule
// sees: 900 initial edges, then an insertion, a real deletion, a deletion
// that removes nothing, and another insertion.
type shareFixture struct {
	n        int
	directed bool
	initial  []graph.Edge
	muts     []struct {
		del   bool
		edges []graph.Edge
	}
}

func newShareFixture(directed bool) *shareFixture {
	const n = 120
	// One edge per vertex pair, so every stored weight is the listed one
	// (InsertEdges is first-wins) and a deletion request's weight is exact.
	var edges, absent []graph.Edge
	seen := map[[2]graph.VertexID]bool{}
	for _, e := range gen.Uniform(n, 1500, 6, 211) {
		if !seen[[2]graph.VertexID{e.Src, e.Dst}] && !seen[[2]graph.VertexID{e.Dst, e.Src}] && e.Src != e.Dst {
			seen[[2]graph.VertexID{e.Src, e.Dst}] = true
			edges = append(edges, e)
		}
	}
	for v := graph.VertexID(0); len(absent) < 3; v++ {
		if !seen[[2]graph.VertexID{v, v + 1}] && !seen[[2]graph.VertexID{v + 1, v}] {
			absent = append(absent, graph.Edge{Src: v, Dst: v + 1, W: 1})
		}
	}
	f := &shareFixture{n: n, directed: directed, initial: edges[:900]}
	f.muts = []struct {
		del   bool
		edges []graph.Edge
	}{
		{false, edges[900:1100]},
		{true, edges[100:160]},
		{true, absent},
		{false, edges[1100:1300]},
	}
	return f
}

// shareSystem is one system under a schedule with its subscriptions'
// client-side state.
type shareSystem struct {
	sys     *core.System
	g       *streamgraph.Graph
	subs    map[string]*core.Subscription
	clients map[string]*subClient
	frames  map[string][]core.ResultFrame
}

func (f *shareFixture) newSystem() *shareSystem {
	g := streamgraph.New(f.n, f.directed)
	g.InsertEdges(f.initial)
	return &shareSystem{
		sys: core.NewSystem(g, 4), g: g,
		subs:    map[string]*core.Subscription{},
		clients: map[string]*subClient{},
		frames:  map[string][]core.ResultFrame{},
	}
}

const shareSubSource = graph.VertexID(7)

// enable enables the problem and, where the problem allows it, subscribes
// one source to it.
func (s *shareSystem) enable(t *testing.T, name string) {
	t.Helper()
	if err := s.sys.Enable(name); err != nil {
		t.Fatal(err)
	}
	if name == "Radii" {
		return
	}
	sub, err := s.sys.SubscribeCtx(context.Background(), name, shareSubSource, 16)
	if err != nil {
		t.Fatal(err)
	}
	s.subs[name], s.clients[name] = sub, &subClient{}
	s.drain(t)
}

// drain applies every pending frame to the clients and records it.
func (s *shareSystem) drain(t *testing.T) {
	t.Helper()
	for name, sub := range s.subs {
		for more := true; more; {
			select {
			case fr := <-sub.Frames():
				s.clients[name].apply(t, fr)
				s.frames[name] = append(s.frames[name], fr)
			default:
				more = false
			}
		}
	}
}

func (s *shareSystem) apply(f *shareFixture, mut int) core.BatchReport {
	if m := f.muts[mut]; m.del {
		return s.sys.ApplyDeletions(m.edges)
	}
	return s.sys.ApplyBatch(f.muts[mut].edges)
}

func setOf(t *testing.T, sys *core.System, base string) *standing.Manager {
	t.Helper()
	for _, set := range sys.StandingSets() {
		if set.Problem.Name() == base {
			return set
		}
	}
	t.Fatalf("no %s standing set", base)
	return nil
}

func totalOf(sets []*standing.Manager) engine.Stats {
	var sum engine.Stats
	for _, set := range sets {
		sum.Add(set.TotalStats)
	}
	return sum
}

// baseOf names the engine problem whose standing set bounds the problem.
func baseOf(name string) string {
	def, _ := core.LookupProblem(name)
	return def.Base.Name()
}

// TestStandingSetsShared: SSSP and Radii share one standing set, BFS and
// SSNSP another, whichever is enabled first. Per batch each set gets
// exactly one maintenance pass — proven from the managers' own counters,
// which (on one processor, where the kernels are deterministic) must equal
// those of a standing.Manager the test itself drives through one pass per
// mutation — and every answer on every query path equals both the oracle
// and the answer of a system with only that problem enabled.
func TestStandingSetsShared(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	all := []string{"SSSP", "Radii", "BFS", "SSNSP"}
	orders := map[string][]shareStep{
		"bases first": {
			{enable: "SSSP"}, {enable: "BFS"}, {enable: "Radii"}, {enable: "SSNSP"},
			{mut: 0}, {mut: 1}, {mut: 2}, {mut: 3},
		},
		"dependants first": {
			{enable: "Radii"}, {enable: "SSNSP"}, {enable: "SSSP"}, {enable: "BFS"},
			{mut: 0}, {mut: 1}, {mut: 2}, {mut: 3},
		},
		"interleaved": {
			{enable: "Radii"}, {enable: "BFS"}, {mut: 0}, {enable: "SSSP"},
			{mut: 1}, {enable: "SSNSP"}, {mut: 2}, {mut: 3},
		},
	}
	for name, steps := range orders {
		for _, directed := range []bool{true, false} {
			f := newShareFixture(directed)
			shared := f.newSystem()
			alone := map[string]*shareSystem{}
			for _, p := range all {
				alone[p] = f.newSystem()
			}
			// The reference: the test's own graph and one manager per base,
			// created when the schedule first needs it.
			refG := streamgraph.New(f.n, directed)
			refSnap, _ := refG.InsertEdges(f.initial)
			refs := map[string]*standing.Manager{}
			for i, st := range steps {
				if st.enable != "" {
					base := baseOf(st.enable)
					var before engine.Stats
					var set *standing.Manager
					if refs[base] != nil {
						set = setOf(t, shared.sys, base)
						before = set.TotalStats
					} else {
						refs[base] = standing.New(props.Registry()[base], refSnap.Flatten(), core.TopDegreeRoots(refSnap, 4), directed)
					}
					shared.enable(t, st.enable)
					alone[st.enable].enable(t, st.enable)
					if got := len(shared.sys.StandingSets()); got != len(refs) {
						t.Fatalf("%s step %d: %d standing sets for %d distinct bases", name, i, got, len(refs))
					}
					if set != nil && (setOf(t, shared.sys, base) != set || set.TotalStats != before) {
						t.Fatalf("%s step %d: enabling %s re-evaluated the %s set", name, i, st.enable, base)
					}
					continue
				}
				sets := shared.sys.StandingSets()
				before := totalOf(sets)
				rep := shared.apply(f, st.mut)
				for _, sys := range alone {
					sys.apply(f, st.mut)
				}
				var changed []graph.VertexID
				if m := f.muts[st.mut]; m.del {
					refSnap, changed = refG.DeleteEdges(m.edges)
				} else {
					refSnap, changed = refG.InsertEdges(m.edges)
				}
				for _, ref := range refs {
					switch m := f.muts[st.mut]; {
					case !m.del:
						ref.Update(refSnap.Flatten(), changed)
					case len(changed) > 0:
						ref.UpdateDeletions(refSnap.Flatten(), m.edges, !directed)
					default:
						ref.StampVersion(refSnap.Version())
					}
				}
				before.Add(rep.StandingStats)
				if after := totalOf(sets); after != before {
					t.Fatalf("%s step %d: report says %+v of standing work, the sets did %+v", name, i, before, after)
				}
				for _, set := range sets {
					base := set.Problem.Name()
					if set.LastVersion != rep.Version {
						t.Fatalf("%s step %d: %s set at version %d, batch published %d", name, i, base, set.LastVersion, rep.Version)
					}
					if ref := refs[base]; set.TotalStats != ref.TotalStats || set.LastVersion != ref.LastVersion {
						t.Fatalf("%s step %d: %s set did %+v, one pass per mutation does %+v", name, i, base, set.TotalStats, ref.TotalStats)
					}
				}
				shared.drain(t)
				for p, sys := range alone {
					sys.drain(t)
					if _, on := shared.subs[p]; on && !reflect.DeepEqual(shared.frames[p], sys.frames[p]) {
						t.Fatalf("%s step %d: %s subscription frames differ from a lone system's", name, i, p)
					}
				}
				shared.checkAnswers(t, f, alone, name)
			}
			if len(shared.sys.StandingSets()) != 2 {
				t.Fatalf("%s: %d standing sets, want 2", name, len(shared.sys.StandingSets()))
			}
			if len(shared.frames["SSNSP"]) < 2 {
				t.Fatalf("%s: SSNSP subscription saw %d frames", name, len(shared.frames["SSNSP"]))
			}
		}
	}
}

// checkAnswers compares every enabled problem's Query, QueryFull,
// QueryMany and subscribed answer against the oracle on the current graph
// and against the lone system's result.
func (s *shareSystem) checkAnswers(t *testing.T, f *shareFixture, alone map[string]*shareSystem, order string) {
	t.Helper()
	csr := s.g.Acquire().CSR(f.directed)
	sources := []graph.VertexID{shareSubSource, 0, 64, graph.VertexID(f.n - 1)}
	for _, name := range s.sys.Enabled() {
		p := props.Registry()[baseOf(name)]
		for _, u := range sources {
			inc, err := s.sys.Query(name, u)
			if err != nil {
				t.Fatal(err)
			}
			full, err := s.sys.QueryFull(name, u)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := alone[name].sys.Query(name, u)
			if err != nil {
				t.Fatal(err)
			}
			want := &core.QueryResult{Width: 1, Values: oracle.BestPath(csr, p, u)}
			switch name {
			case "SSNSP":
				_, want.Counts = oracle.CountShortestPaths(csr, u)
			case "Radii":
				srcs := core.RadiiSources(u, f.n)
				want.Width = len(srcs)
				want.Values = make([]uint64, f.n*want.Width)
				for j, src := range srcs {
					for v, d := range oracle.BestPath(csr, p, src) {
						want.Values[v*want.Width+j] = d
					}
				}
				want.Radius = props.RadiiEstimate(want.Values, f.n, want.Width)
			}
			for path, got := range map[string]*core.QueryResult{"Query": inc, "QueryFull": full, "lone Query": ref} {
				if got.Width != want.Width || got.Radius != want.Radius ||
					!reflect.DeepEqual(got.Values, want.Values) || !reflect.DeepEqual(got.Counts, want.Counts) {
					t.Fatalf("%s: %s %s(%d) differs from the oracle", order, path, name, u)
				}
			}
			// The reported selection is one of the shared set's roots.
			root := setOf(t, s.sys, baseOf(name)).Roots[inc.StandingSlot]
			if toRoot := oracle.BestPathTo(csr, p, root); inc.PropUR != toRoot[u] {
				t.Fatalf("%s: %s(%d) reports property(u,r)=%d for root %d, oracle %d",
					order, name, u, inc.PropUR, root, toRoot[u])
			}
		}
		if name == "SSSP" || name == "BFS" {
			many, err := s.sys.QueryManyCtx(context.Background(), name, sources)
			if err != nil {
				t.Fatal(err)
			}
			for j, u := range sources {
				want := oracle.BestPath(csr, p, u)
				for v := range want {
					if many.Value(graph.VertexID(v), j) != want[v] {
						t.Fatalf("%s: QueryMany %s slot %d vertex %d differs from the oracle", order, name, j, v)
					}
				}
			}
		}
		if c := s.clients[name]; c != nil {
			want := oracle.BestPath(csr, p, shareSubSource)
			if !reflect.DeepEqual(c.values, want) {
				t.Fatalf("%s: %s subscriber's values differ from the oracle", order, name)
			}
			if name == "SSNSP" {
				if _, counts := oracle.CountShortestPaths(csr, shareSubSource); !reflect.DeepEqual(c.counts, counts) {
					t.Fatalf("%s: SSNSP subscriber's counts differ from the oracle", order)
				}
			}
		}
	}
}

// TestReselectRootsActsOnTheSharedSet: re-rooting Radii re-roots the set
// SSSP queries select from, and both problems stay exact. A batch makes
// vertices 140–144 the graph's hubs, so the degree rule moves the roots.
func TestReselectRootsActsOnTheSharedSet(t *testing.T) {
	edges := gen.Uniform(150, 1200, 8, 121)
	g := streamgraph.New(150, true)
	g.InsertEdges(edges)
	sys := newSystem(t, g, "Radii", "SSSP")
	set := setOf(t, sys, "SSSP")
	before := append([]graph.VertexID(nil), set.Roots...)
	var hubs []graph.Edge
	for u := graph.VertexID(140); u < 145; u++ {
		for v := graph.VertexID(0); v < 60; v++ {
			hubs = append(hubs, graph.Edge{Src: u, Dst: v, W: 1 + graph.Weight(v)%8})
		}
	}
	sys.ApplyBatch(hubs)
	if err := sys.ReselectRoots("Radii"); err != nil {
		t.Fatal(err)
	}
	if setOf(t, sys, "SSSP") != set || len(sys.StandingSets()) != 1 {
		t.Fatal("reselection replaced or duplicated the shared set")
	}
	if reflect.DeepEqual(set.Roots, before) || !slices.ContainsFunc(set.Roots, func(r graph.VertexID) bool { return r >= 140 && r < 145 }) {
		t.Fatalf("roots %v (before %v) took none of the new hubs 140–144", set.Roots, before)
	}
	csr := g.Acquire().CSR(true)
	for _, u := range []graph.VertexID{3, 141} {
		res, err := sys.Query("SSSP", u)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Values, oracle.BestPath(csr, props.SSSP{}, u)) {
			t.Fatalf("SSSP(%d) wrong after reselecting through Radii", u)
		}
		// The slot SSSP reports indexes the new roots.
		if toRoot := oracle.BestPathTo(csr, props.SSSP{}, set.Roots[res.StandingSlot]); res.PropUR != toRoot[u] {
			t.Fatalf("SSSP(%d) reports property(u,r)=%d for root %d, oracle %d",
				u, res.PropUR, set.Roots[res.StandingSlot], toRoot[u])
		}
		inc, err := sys.Query("Radii", u)
		if err != nil {
			t.Fatal(err)
		}
		full, err := sys.QueryFull("Radii", u)
		if err != nil {
			t.Fatal(err)
		}
		if inc.Radius != full.Radius || !reflect.DeepEqual(inc.Values, full.Values) {
			t.Fatalf("Radii(%d) Δ and full differ after reselection", u)
		}
	}
}
