package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"tripoline/internal/graph"
	"tripoline/internal/oracle"
	"tripoline/internal/props"
)

// exerciseBuildOnMiss drives every reader that pins a mirror down
// core.PinMirror's miss path — Retain denied by every shard's seam, then a
// version whose mirrors the writers really retired — on a router of the
// given width, and holds each answer to
// the sequential oracle on the reference system's C-tree at the version the
// answer reports. A query pins its S mirrors once, so a missed query costs
// exactly S private full builds however many rounds it runs; the tagged
// TestLedgerBuildOnMiss asserts every one of them was released.
func exerciseBuildOnMiss(t *testing.T, shards int) {
	t.Helper()
	const n = 120
	p := newPair(t, n, false, shards, []string{"SSSP", "CC"})
	p.ref.EnableHistory(16)
	p.rt.EnableHistory(16)
	rng := rand.New(rand.NewSource(18))
	p.insert(t, randBatch(rng, n, 80))
	retired := p.rt.Version()
	p.insert(t, randBatch(rng, n, 80)) // retires that version's mirrors

	// exact holds column off of the stride-wide got to the oracle at version.
	exact := func(label, problem string, u graph.VertexID, version uint64, got []uint64, stride, off int) {
		t.Helper()
		snap, ok := p.ref.HistoryAt(version)
		if !ok {
			t.Fatalf("%s: version %d not retained", label, version)
		}
		want := oracle.Components(snap.CSR(false))
		if problem != "CC" {
			want = oracle.BestPath(snap.CSR(false), props.Registry()[problem], u)
		}
		for x := range want {
			if g := got[x*stride+off]; g != want[x] {
				t.Fatalf("%s: %s(%d) at v%d: value[%d] = %d, oracle %d", label, problem, u, version, x, g, want[x])
			}
		}
	}
	var builds, misses int64
	fullBuilds := func() (total int64) {
		for _, g := range p.rt.graphs {
			total += g.MirrorMetrics().FullBuilds.Value()
		}
		return total
	}
	missed := func(label string) {
		t.Helper()
		misses++
		if got := fullBuilds() - builds; got != misses*int64(shards) {
			t.Fatalf("%s: %d private mirror builds after %d missed queries at S=%d", label, got, misses, shards)
		}
	}
	deny := func(on bool) {
		for _, g := range p.rt.graphs {
			g.Seam().SetDenyRetain(on)
		}
	}

	builds = fullBuilds()
	deny(true)
	res, err := p.rt.Query("SSSP", 7)
	if err != nil {
		t.Fatal(err)
	}
	exact("Query", "SSSP", 7, res.Version, res.Values, 1, 0)
	missed("Query")
	for _, problem := range []string{"SSSP", "CC"} {
		if res, err = p.rt.QueryFull(problem, 51); err != nil {
			t.Fatal(err)
		}
		exact("QueryFull", problem, 51, res.Version, res.Values, 1, 0)
		missed("QueryFull " + problem)
	}
	sources := []graph.VertexID{2, 63, 119}
	many, err := p.rt.QueryMany("SSSP", sources)
	if err != nil {
		t.Fatal(err)
	}
	for j, u := range sources {
		exact("QueryMany", "SSSP", u, many.Version, many.Values, many.Width, j)
	}
	missed("QueryMany")
	sub, err := p.rt.Subscribe("SSSP", 13, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer p.rt.Unsubscribe(sub)
	frame := <-sub.Frames()
	values := frame.Values
	exact("subscription snapshot", "SSSP", 13, frame.Version, values, 1, 0)
	missed("Subscribe")
	// The refresh evaluates over the writer's own mirrors: no pin, no build.
	p.insert(t, randBatch(rng, n, 40))
	frame = <-sub.Frames()
	for _, d := range frame.Changed {
		values[d.Vertex] = d.Value
	}
	exact("subscription refresh", "SSSP", 13, frame.Version, values, 1, 0)
	// The retired version: with the seam still armed, then — no seam — with
	// its mirrors drained for real.
	for _, problem := range []string{"SSSP", "CC"} {
		if res, err = p.rt.QueryAt(retired, problem, 5); err != nil {
			t.Fatal(err)
		}
		exact("QueryAt", problem, 5, res.Version, res.Values, 1, 0)
		missed("QueryAt " + problem)
		deny(false)
	}
	// And a live mirror is retained, not rebuilt.
	if _, err := p.rt.Query("SSSP", 7); err != nil || fullBuilds()-builds != misses*int64(shards) {
		t.Fatalf("a query over live mirrors: err %v, %d builds for %d misses", err, fullBuilds()-builds, misses)
	}
}

func TestBuildOnMiss(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("S=%d", shards), func(t *testing.T) { exerciseBuildOnMiss(t, shards) })
	}
}
