package core_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"tripoline/internal/core"
	"tripoline/internal/graph"
)

// subClient mirrors what a real subscriber does: apply each frame to a
// local copy of the answer.
type subClient struct {
	values  []uint64
	counts  []uint64
	version uint64
	frames  int
}

func (c *subClient) apply(t *testing.T, f core.ResultFrame) {
	t.Helper()
	c.frames++
	switch f.Kind {
	case "snapshot":
		c.values = append([]uint64(nil), f.Values...)
		c.counts = append([]uint64(nil), f.Counts...)
	case "delta":
		for _, d := range f.Changed {
			for int(d.Vertex) >= len(c.values) {
				c.values = append(c.values, 0)
			}
			c.values[d.Vertex] = d.Value
		}
		for _, d := range f.ChangedCounts {
			for int(d.Vertex) >= len(c.counts) {
				c.counts = append(c.counts, 0)
			}
			c.counts[d.Vertex] = d.Value
		}
	default:
		t.Fatalf("unknown frame kind %q", f.Kind)
	}
	c.version = f.Version
}

func (c *subClient) drain(t *testing.T, sub *core.Subscription) {
	t.Helper()
	for {
		select {
		case f, ok := <-sub.Frames():
			if !ok {
				return
			}
			c.apply(t, f)
		default:
			return
		}
	}
}

// TestSubscribeSnapshotAndDeltas: the snapshot frame matches a fresh
// query, and after each batch the applied deltas reproduce the current
// exact answer.
func TestSubscribeSnapshotAndDeltas(t *testing.T) {
	for _, problem := range []string{"BFS", "SSSP", "SSNSP"} {
		sys, _, edges := buildSystem(t, false, problem)
		sub, err := sys.SubscribeCtx(context.Background(), problem, 13, 16)
		if err != nil {
			t.Fatal(err)
		}
		client := &subClient{}
		client.drain(t, sub)
		if client.frames != 1 {
			t.Fatalf("%s: got %d initial frames, want snapshot", problem, client.frames)
		}

		for _, cut := range [][2]int{{1000, 1150}, {1150, 1400}} {
			rep := sys.ApplyBatch(edges[cut[0]:cut[1]])
			if rep.Subscribers != 1 || rep.FramesSent != 1 {
				t.Fatalf("%s: batch report fan-out %+v", problem, rep)
			}
			client.drain(t, sub)
			if client.version != rep.Version {
				t.Fatalf("%s: client at version %d, batch published %d", problem, client.version, rep.Version)
			}
			want, err := sys.QueryFull(problem, 13)
			if err != nil {
				t.Fatal(err)
			}
			if len(client.values) != len(want.Values) {
				t.Fatalf("%s: client has %d values, want %d", problem, len(client.values), len(want.Values))
			}
			for i := range want.Values {
				if client.values[i] != want.Values[i] {
					t.Fatalf("%s v%d: client value[%d] = %d, want %d",
						problem, rep.Version, i, client.values[i], want.Values[i])
				}
			}
			for i := range want.Counts {
				if client.counts[i] != want.Counts[i] {
					t.Fatalf("%s v%d: client count[%d] = %d, want %d",
						problem, rep.Version, i, client.counts[i], want.Counts[i])
				}
			}
		}
		sys.Unsubscribe(sub)
		if _, ok := <-sub.Frames(); ok {
			t.Fatal("frame channel still open after Unsubscribe")
		}
		if sys.Subscribers() != 0 {
			t.Fatal("subscriber still registered")
		}
	}
}

// TestSubscribeDeletionsRefresh: an ApplyDeletions that changes sources
// also pushes a delta frame.
func TestSubscribeDeletionsRefresh(t *testing.T) {
	sys, _, edges := buildSystem(t, false, "BFS")
	sys.ApplyBatch(edges[1000:1400])
	sub, err := sys.SubscribeCtx(context.Background(), "BFS", 13, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Unsubscribe(sub)
	client := &subClient{}
	client.drain(t, sub)

	rep := sys.ApplyDeletions(edges[:200])
	if rep.ChangedSources == 0 {
		t.Fatal("deletion batch changed nothing")
	}
	if rep.FramesSent != 1 {
		t.Fatalf("deletion fan-out sent %d frames, want 1", rep.FramesSent)
	}
	client.drain(t, sub)
	want, err := sys.QueryFull("BFS", 13)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Values {
		if client.values[i] != want.Values[i] {
			t.Fatalf("post-deletion client value[%d] = %d, want %d", i, client.values[i], want.Values[i])
		}
	}
}

// TestSubscribeSlowClientCumulativeDeltas: a full channel drops frames
// without advancing the baseline, so the next delivered delta is
// cumulative from the client's actual state.
func TestSubscribeSlowClientCumulativeDeltas(t *testing.T) {
	sys, _, edges := buildSystem(t, false, "BFS")
	sub, err := sys.SubscribeCtx(context.Background(), "BFS", 13, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Unsubscribe(sub)

	// The snapshot frame fills the size-1 buffer; these batches must drop
	// their frames.
	r1 := sys.ApplyBatch(edges[1000:1150])
	r2 := sys.ApplyBatch(edges[1150:1300])
	if r1.FramesDropped != 1 || r2.FramesDropped != 1 {
		t.Fatalf("expected drops, got %+v %+v", r1, r2)
	}
	client := &subClient{}
	client.drain(t, sub) // receives only the snapshot

	rep := sys.ApplyBatch(edges[1300:1400])
	client.drain(t, sub)
	if client.version != rep.Version {
		t.Fatalf("client at version %d, want %d", client.version, rep.Version)
	}
	want, err := sys.QueryFull("BFS", 13)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Values {
		if client.values[i] != want.Values[i] {
			t.Fatalf("cumulative delta wrong at %d: %d want %d", i, client.values[i], want.Values[i])
		}
	}
}

// TestSubscribeWholeGraph: PageRank and CC subscriptions push the shared
// standing answer.
func TestSubscribeWholeGraph(t *testing.T) {
	for _, problem := range []string{"PageRank", "CC"} {
		sys, _, edges := buildSystem(t, false, problem)
		sub, err := sys.SubscribeCtx(context.Background(), problem, 0, 16)
		if err != nil {
			t.Fatal(err)
		}
		client := &subClient{}
		client.drain(t, sub)
		rep := sys.ApplyBatch(edges[1000:1400])
		client.drain(t, sub)
		want, err := sys.Query(problem, 0)
		if err != nil {
			t.Fatal(err)
		}
		if client.version != want.Version {
			t.Fatalf("%s: client version %d, standing version %d (batch %d)",
				problem, client.version, want.Version, rep.Version)
		}
		for i := range want.Values {
			if client.values[i] != want.Values[i] {
				t.Fatalf("%s: client value[%d] differs", problem, i)
			}
		}
		sys.Unsubscribe(sub)
	}
}

// TestSubscribeUnsupported: Radii rejects subscriptions with the typed
// sentinel; unknown problems and out-of-range sources fail like queries.
func TestSubscribeUnsupported(t *testing.T) {
	sys, _, _ := buildSystem(t, false, "Radii")
	if _, err := sys.SubscribeCtx(context.Background(), "Radii", 0, 0); !errors.Is(err, core.ErrSubscribeUnsupported) {
		t.Fatalf("Radii subscribe err = %v, want ErrSubscribeUnsupported", err)
	}
	if _, err := sys.SubscribeCtx(context.Background(), "BFS", 0, 0); !errors.Is(err, core.ErrUnknownProblem) {
		t.Fatalf("unknown problem err = %v", err)
	}
	sys2, _, _ := buildSystem(t, false, "BFS")
	if _, err := sys2.SubscribeCtx(context.Background(), "BFS", graph.VertexID(1<<20), 0); !errors.Is(err, core.ErrSourceOutOfRange) {
		t.Fatalf("out-of-range err = %v", err)
	}
}

// TestSubscriptionVersionDuringBatches: Version is read by the client
// while the writer delivers frames, so it must not race with delivery
// (run under -race), and it never goes backwards.
func TestSubscriptionVersionDuringBatches(t *testing.T) {
	sys, _, edges := buildSystem(t, false, "BFS")
	sub, err := sys.SubscribeCtx(context.Background(), "BFS", 13, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Unsubscribe(sub)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for lo := 1000; lo < 1400; lo += 40 {
			sys.ApplyBatch(edges[lo : lo+40])
		}
	}()
	var last uint64
	for running := true; running; {
		select {
		case <-done:
			running = false
		case <-sub.Frames():
		default:
		}
		v := sub.Version()
		if v < last {
			t.Fatalf("Version went backwards: %d after %d", v, last)
		}
		last = v
	}
	// With the buffer drained, the next batch's frame is delivered.
	client := &subClient{}
	client.drain(t, sub)
	rep := sys.ApplyBatch(edges[:40])
	if v := sub.Version(); v != rep.Version {
		t.Fatalf("Version %d after batch %d was delivered", v, rep.Version)
	}
}

// TestSubscribeCatchesUpAcrossABatch: batches published while a
// subscribe evaluates its snapshot outside the lock make the install
// refuse that snapshot. After insertions the snapshot catches up from the
// arcs they changed — one batch (its recorded arcs), or two, one of them
// growing the graph (the changed sources' out-arcs) — and after a
// deletion it is evaluated again; either way the subscription's snapshot
// and every later delta frame stay exact, on both orientations.
func TestSubscribeCatchesUpAcrossABatch(t *testing.T) {
	grow := []graph.Edge{{Src: 13, Dst: 170, W: 1}, {Src: 170, Dst: 5, W: 2}, {Src: 171, Dst: 13, W: 3}}
	mutations := []struct {
		name                  string
		apply                 func(sys *core.System, edges []graph.Edge)
		evaluations, catchUps int
	}{
		{"insert", func(sys *core.System, edges []graph.Edge) { sys.ApplyBatch(edges[1000:1150]) }, 1, 1},
		{"insert+grow", func(sys *core.System, edges []graph.Edge) {
			sys.ApplyBatch(edges[1000:1150])
			sys.ApplyBatch(grow)
		}, 1, 1},
		{"delete", func(sys *core.System, edges []graph.Edge) { sys.ApplyDeletions(edges[:150]) }, 2, 0},
	}
	for _, directed := range []bool{false, true} {
		for _, problem := range []string{"SSSP", "SSWP", "SSNSP"} {
			for _, m := range mutations {
				label := fmt.Sprintf("directed=%v/%s/%s", directed, problem, m.name)
				sys, _, edges := buildSystem(t, directed, problem)
				sub, evaluations, catchUps, err := sys.SubscribeAcross(problem, 13, func() { m.apply(sys, edges) })
				if err != nil {
					t.Fatal(err)
				}
				if evaluations != m.evaluations || catchUps != m.catchUps {
					t.Fatalf("%s: %d evaluations and %d catch-ups, want %d and %d", label, evaluations, catchUps, m.evaluations, m.catchUps)
				}
				client := &subClient{}
				for step := range 2 {
					if step > 0 {
						sys.ApplyBatch(edges[1150:1400])
					}
					client.drain(t, sub)
					want, err := sys.QueryFull(problem, 13)
					if err != nil {
						t.Fatal(err)
					}
					if client.version != want.Version {
						t.Fatalf("%s step %d: client at version %d, latest is %d", label, step, client.version, want.Version)
					}
					if !slices.Equal(client.values, want.Values) || !slices.Equal(client.counts, want.Counts) {
						t.Fatalf("%s step %d: client answer differs from the full evaluation at version %d", label, step, want.Version)
					}
				}
				sys.Unsubscribe(sub)
			}
		}
	}
}

// TestSubscribeCatchUpUnderConcurrentBatches drives the catch-up path
// from several goroutines at once while a writer publishes insertion
// batches and one deletion (run it under -race): every subscribe waits,
// after evaluating its snapshot, for the writer's next batch, so its
// install is refused and it catches up (or, across the deletion,
// evaluates again) while other subscribes and the writer run. One more
// goroutine subscribes and at once unsubscribes, so lanes are freed while
// the writer maintains their pages: the race detector reports it unless
// the free holds the lock the writer holds. After the writer stops, every
// subscriber's frames must reproduce the full evaluation at the latest
// version.
func TestSubscribeCatchUpUnderConcurrentBatches(t *testing.T) {
	problems := []string{"SSSP", "SSWP", "BFS", "SSNSP"}
	sys, _, edges := buildSystem(t, true, problems...)
	const batches = 12
	var mu sync.Mutex
	next, done := make(chan struct{}), make(chan struct{})
	var catchUps atomic.Int64
	sys.OnSubscribeEvaluated(func(caughtUp bool) {
		if caughtUp {
			catchUps.Add(1)
			return
		}
		mu.Lock()
		published := next
		mu.Unlock()
		select {
		case <-published:
		case <-done:
		}
	})
	type client struct {
		subClient
		sub *core.Subscription
	}
	var clients []*client
	var clientsMu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for b := range batches {
			if b == batches/2 {
				sys.ApplyDeletions(edges[:60])
			} else {
				sys.ApplyBatch(edges[1000+30*b : 1030+30*b])
			}
			mu.Lock()
			close(next)
			next = make(chan struct{})
			mu.Unlock()
		}
	}()
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; ; round++ {
				select {
				case <-done:
					return
				default:
				}
				problem := problems[(w+round)%len(problems)]
				sub, err := sys.SubscribeCtx(context.Background(), problem, graph.VertexID((w*37+round*11)%160), batches+2)
				if err != nil {
					t.Error(err)
					return
				}
				clientsMu.Lock()
				clients = append(clients, &client{sub: sub})
				clientsMu.Unlock()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; ; round++ {
			sub, err := sys.SubscribeCtx(context.Background(), "SSWP", graph.VertexID(159-round%40), 1)
			if err != nil {
				t.Error(err)
				return
			}
			sys.Unsubscribe(sub)
			// Wait out the next batch before subscribing again, whose
			// snapshot would take the shared lock: nothing but
			// Unsubscribe's own locking may order the free before that
			// batch's maintenance.
			mu.Lock()
			published := next
			mu.Unlock()
			select {
			case <-published:
			case <-done:
				return
			}
		}
	}()
	wg.Wait()
	if catchUps.Load() == 0 {
		t.Fatal("no subscribe caught up")
	}
	for _, c := range clients {
		c.drain(t, c.sub)
		want, err := sys.QueryFull(c.sub.Problem, c.sub.Source)
		if err != nil {
			t.Fatal(err)
		}
		if c.version != want.Version || !slices.Equal(c.values, want.Values) || !slices.Equal(c.counts, want.Counts) {
			t.Fatalf("%s from %d: client at version %d differs from the full evaluation at version %d",
				c.sub.Problem, c.sub.Source, c.version, want.Version)
		}
		sys.Unsubscribe(c.sub)
	}
	t.Logf("%d subscribes, %d catch-ups", len(clients), catchUps.Load())
}
