package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"tripoline/internal/core"
	"tripoline/internal/graph"
	"tripoline/internal/oracle"
	"tripoline/internal/props"
	"tripoline/internal/streamgraph"
	"tripoline/internal/xrand"
)

// slotProblems are the subscribable problems the slot lock covers:
// every triangle problem (SSNSP through BFS's slots) and CC, whose answer
// is the evaluator's own.
var slotProblems = []string{"SSSP", "SSWP", "Viterbi", "BFS", "SSNP", "SSR", "SSNSP", "CC"}

// TestSubscribedSlotsStayExact is the lock on subscribed lanes, in the
// shape of TestStandingStaysExact: directed and undirected graphs, every
// subscribable problem but PageRank, and a schedule
// of insertion batches, one that grows the vertex count, and trimmed
// deletions, with subscribers leaving and arriving between batches (lanes
// freed and reused). After every step every lane is held to
// oracle.BestPath and every SSNSP subscriber's counts to
// oracle.CountShortestPaths at the version its set stands on, and two
// kinds of client are held to the oracle at the version of the frames
// they applied: one drained after every batch, and one with a one-frame
// buffer, drained every third step, so it drops frames and catches up
// from cumulative ones. The differential checker replays undirected
// graphs only, so directed lane trimming is locked here and nowhere else.
// One more input subscribes 70 further SSSP sources, so that SSSP's set
// holds more than 64 lanes and its overflow page is maintained through
// the same insertions, deletions and growth. In every input the SSSP
// subscriber that leaves and comes back lands on the lane it freed.
func TestSubscribedSlotsStayExact(t *testing.T) {
	t.Run("directed=true/S=1", func(t *testing.T) { runSlotSchedule(t, true, 16, 0) })
	t.Run("directed=false/S=1", func(t *testing.T) { runSlotSchedule(t, false, 10, 0) })
	t.Run("directed=true/overflow", func(t *testing.T) { runSlotSchedule(t, true, 31, 70) })
}

type slotClient struct {
	subClient
	sub   *core.Subscription
	lossy bool
}

type slotSchedule struct {
	t        *testing.T
	directed bool
	sys      *core.System
	ref      *streamgraph.Graph
	snaps    map[uint64]*streamgraph.Snapshot
	// ccFull holds CC's from-scratch answer per version on directed
	// graphs, where the union-find oracle does not apply.
	ccFull  map[uint64][]uint64
	clients []*slotClient
	dropped int
}

// runSlotSchedule runs one input of TestSubscribedSlotsStayExact, drawn
// from seed, with extra further SSSP subscribers.
func runSlotSchedule(t *testing.T, directed bool, seed uint64, extra int) {
	const n, preload, steps, batchEdges = 100, 300, 12, 30
	rng := xrand.New(seed)
	s := &slotSchedule{
		t: t, directed: directed,
		sys:    core.NewSystem(streamgraph.New(n, directed), 4),
		ref:    streamgraph.New(n, directed),
		snaps:  make(map[uint64]*streamgraph.Snapshot),
		ccFull: make(map[uint64][]uint64),
	}
	var stored []graph.Edge
	randomEdges := func(count, limit int) []graph.Edge {
		out := make([]graph.Edge, count)
		for i := range out {
			out[i] = graph.Edge{
				Src: graph.VertexID(rng.Intn(limit)), Dst: graph.VertexID(rng.Intn(limit)),
				W: graph.Weight(1 + rng.Intn(8)),
			}
		}
		stored = append(stored, out...)
		return out
	}
	s.apply(false, randomEdges(preload, n))
	for _, p := range slotProblems {
		if err := s.sys.Enable(p); err != nil {
			t.Fatal(err)
		}
	}
	s.record()
	for _, p := range slotProblems {
		// BFS and SSNSP at one source share a slot, and so do the two
		// clients of one (problem, source).
		s.subscribe(p, 3, false)
		s.subscribe(p, 3, true)
		s.subscribe(p, 41, false)
	}
	for u := graph.VertexID(20); u < graph.VertexID(20+extra); u++ {
		if u != 41 && u != 77 {
			s.subscribe("SSSP", u, false)
		}
	}
	if extra > 0 && s.laneOf("SSSP", 20+graph.VertexID(extra)-1) < 64 {
		t.Fatalf("%d more SSSP sources left no lane past 63: no overflow page", extra)
	}
	s.check("subscribed", 0)

	limit := n
	for step := 1; step <= steps; step++ {
		switch {
		case step%4 == 3:
			batch := make([]graph.Edge, 0, 20)
			for i := 0; i < 20; i++ {
				batch = append(batch, stored[rng.Intn(len(stored))])
			}
			s.apply(true, batch)
		case step == 5:
			limit = n + 30
			s.apply(false, randomEdges(batchEdges, limit))
		default:
			s.apply(false, randomEdges(batchEdges, limit))
		}
		s.record()
		if step == 6 {
			// Leave and arrive between batches: SSSP at 41 frees its lane,
			// BFS's drained client at 3 leaves a lane other subscribers
			// still read, and SSSP at 41 comes back on the lane it freed
			// while two fresh sources take free lanes.
			freed := s.laneOf("SSSP", 41)
			s.unsubscribe("SSSP", 41)
			s.unsubscribe("BFS", 3)
			s.subscribe("SSSP", 41, false)
			if got := s.laneOf("SSSP", 41); got != freed {
				t.Fatalf("SSSP at 41 came back on lane %d, it freed lane %d", got, freed)
			}
			s.subscribe("SSWP", 77, false)
			s.subscribe("SSNSP", 77, false)
		}
		s.check(fmt.Sprintf("step %d", step), step)
	}
	for _, c := range s.clients {
		c.drain(t, c.sub)
		s.verifyClient("final", c)
		s.sys.Unsubscribe(c.sub)
	}
	if slots := s.sys.SubscribedSlots(); len(slots) != 0 {
		t.Fatalf("%d slots left after every subscriber left", len(slots))
	}
	if s.dropped == 0 {
		t.Fatal("no frame was dropped: the lossy clients were never lossy")
	}
}

func (s *slotSchedule) apply(del bool, batch []graph.Edge) {
	var rep core.BatchReport
	if del {
		rep = s.sys.ApplyDeletions(batch)
		s.ref.DeleteEdges(batch)
	} else {
		rep = s.sys.ApplyBatch(batch)
		s.ref.InsertEdges(batch)
	}
	s.dropped += rep.FramesDropped
	if v := s.ref.Acquire().Version(); rep.Version != v {
		s.t.Fatalf("system published v=%d, reference graph at v=%d", rep.Version, v)
	}
}

// record pins the reference graph's current version for the oracle.
func (s *slotSchedule) record() {
	snap := s.ref.Acquire()
	s.snaps[snap.Version()] = snap
	if s.directed {
		full, err := s.sys.QueryFull("CC", 0)
		if err != nil {
			s.t.Fatal(err)
		}
		s.ccFull[snap.Version()] = full.Values
	}
}

func (s *slotSchedule) subscribe(problem string, u graph.VertexID, lossy bool) {
	buffer := 64
	if lossy {
		buffer = 1
	}
	sub, err := s.sys.Subscribe(problem, u, buffer)
	if err != nil {
		s.t.Fatal(err)
	}
	c := &slotClient{sub: sub, lossy: lossy}
	c.drain(s.t, sub) // the snapshot frame
	s.verifyClient("snapshot", c)
	s.clients = append(s.clients, c)
}

// unsubscribe removes the first drained client of (problem, u).
func (s *slotSchedule) unsubscribe(problem string, u graph.VertexID) {
	for i, c := range s.clients {
		if c.sub.Problem == problem && c.sub.Source == u && !c.lossy {
			s.sys.Unsubscribe(c.sub)
			s.clients = append(s.clients[:i], s.clients[i+1:]...)
			return
		}
	}
	s.t.Fatalf("no drained %s client at %d", problem, u)
}

// laneOf returns the lane of problem's standing set that holds u.
func (s *slotSchedule) laneOf(problem string, u graph.VertexID) int {
	for _, sl := range s.sys.SubscribedSlots() {
		if sl.Problem == problem && sl.Source == u {
			return sl.Lane
		}
	}
	s.t.Fatalf("no %s lane holds %d", problem, u)
	return -1
}

// want returns the oracle's answer to (problem, u) at version ver: the
// values and, for SSNSP, the counts.
func (s *slotSchedule) want(problem string, u graph.VertexID, ver uint64) (vals, counts []uint64) {
	snap, ok := s.snaps[ver]
	if !ok {
		s.t.Fatalf("version %d not recorded", ver)
	}
	csr := snap.CSR(s.directed)
	switch problem {
	case "CC":
		if s.directed {
			return s.ccFull[ver], nil
		}
		return oracle.Components(csr), nil
	case "SSNSP":
		return oracle.CountShortestPaths(csr, u)
	}
	return oracle.BestPath(csr, props.Registry()[problem], u), nil
}

// check holds every slot, every SSNSP subscriber's counts and every client
// due for a drain to the oracle.
func (s *slotSchedule) check(label string, step int) {
	t := s.t
	t.Helper()
	ver := s.ref.Acquire().Version()
	type key struct {
		problem string
		u       graph.VertexID
	}
	live := make(map[key]bool)
	for _, c := range s.clients {
		switch c.sub.Problem {
		case "CC":
		case "SSNSP":
			live[key{"BFS", c.sub.Source}] = true
			_, counts := s.want("SSNSP", c.sub.Source, ver)
			if got := s.sys.SubscriptionCounts(c.sub); !reflect.DeepEqual(got, counts) {
				t.Fatalf("%s: SSNSP counts at %d differ from the oracle at v=%d", label, c.sub.Source, ver)
			}
		default:
			live[key{c.sub.Problem, c.sub.Source}] = true
		}
	}
	slots := s.sys.SubscribedSlots()
	if len(slots) != len(live) {
		t.Fatalf("%s: %d slots for %d subscribed (standing set, source) pairs", label, len(slots), len(live))
	}
	for _, sl := range slots {
		if !live[key{sl.Problem, sl.Source}] {
			t.Fatalf("%s: slot %s at %d has no subscriber", label, sl.Problem, sl.Source)
		}
		if sl.Version != ver {
			t.Fatalf("%s: slot %s at %d stands on v=%d, latest is %d", label, sl.Problem, sl.Source, sl.Version, ver)
		}
		want, _ := s.want(sl.Problem, sl.Source, ver)
		if len(sl.Values) != len(want) {
			t.Fatalf("%s: slot %s at %d holds %d values, oracle %d", label, sl.Problem, sl.Source, len(sl.Values), len(want))
		}
		for v := range want {
			if sl.Values[v] != want[v] {
				t.Fatalf("%s: slot %s at %d value(%d) = %#x, oracle %#x", label, sl.Problem, sl.Source, v, sl.Values[v], want[v])
			}
		}
	}
	for _, c := range s.clients {
		if c.lossy && step%3 != 2 {
			continue
		}
		c.drain(t, c.sub)
		if !c.lossy && c.version != ver {
			t.Fatalf("%s: drained %s client at %d is at v=%d, latest is %d", label, c.sub.Problem, c.sub.Source, c.version, ver)
		}
		s.verifyClient(label, c)
	}
}

// verifyClient holds a client's reconstructed answer to the oracle at the
// version of the last frame it applied, and Version to that version.
func (s *slotSchedule) verifyClient(label string, c *slotClient) {
	t := s.t
	t.Helper()
	if got := c.sub.Version(); got != c.version {
		t.Fatalf("%s: %s client at %d applied v=%d, Version() says %d", label, c.sub.Problem, c.sub.Source, c.version, got)
	}
	vals, counts := s.want(c.sub.Problem, c.sub.Source, c.version)
	if !reflect.DeepEqual(c.values, vals) {
		t.Fatalf("%s: %s client (lossy=%v) at %d differs from the oracle at v=%d", label, c.sub.Problem, c.lossy, c.sub.Source, c.version)
	}
	if counts != nil && !reflect.DeepEqual(c.counts, counts) {
		t.Fatalf("%s: SSNSP client (lossy=%v) at %d: counts differ from the oracle at v=%d", label, c.lossy, c.sub.Source, c.version)
	}
}
