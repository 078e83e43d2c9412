package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"tripoline/internal/core"
	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/props"
	"tripoline/internal/standing"
	"tripoline/internal/streamgraph"
	"tripoline/internal/triangle"
)

// rig is what a traced run adds to the script: three stacks kept in
// version lockstep with the primary target, so that at fixed points the
// same op can be re-performed stage by stage through each layer's
// exported functions, on the same graph version, and timed per call.
//
//   - the layer stack: the benchmark's own streamgraph.Graph, flat
//     mirror chain and standing.Manager for the probe problem, driven
//     call by call (InsertEdges, FlattenFrom, Update, Select,
//     DeltaInitInto, NewState, RunPushCtx, RunCtx);
//   - the core stack: an unsharded core.System — the primary itself on
//     a library workload, a second system on the serving workload;
//   - the serving stack: internal/server over a 4-shard router on a
//     loopback listener — the primary on the serving workload, a second
//     stack elsewhere.
//
// Every mutation of the script is mirrored to the stacks the primary is
// not, so every traced run yields every layer's spans, whatever the
// workload. Probes use their own sources and only the probe problem
// (the first the workload queries), so the stacks that are not the primary enable
// just that one problem.
type rig struct {
	tr      *tracer
	sc      *script
	problem string
	p       engine.Problem

	g    *streamgraph.Graph
	cur  *streamgraph.Snapshot
	flat *streamgraph.Flat
	mgr  *standing.Manager

	core     *coreTarget
	http     *httpTarget
	httpMain bool // the serving stack is the primary

	nextProbe int
	// subMark is the serving stack's sub-batch counter as of its last
	// recorded mutation; the next one's fan-out is the difference.
	subMark float64
}

func newRig(w workload, sc *script, primary target) (*rig, error) {
	name := w.queryProblems()[0]
	p, ok := props.Registry()[name]
	if !ok {
		return nil, fmt.Errorf("probe problem %s is not a simple triangle problem", name)
	}
	tr := newTracer()
	r := &rig{tr: tr, sc: sc, problem: name, p: p}

	tr.newOp()
	root := tr.begin(0, "probe.setup")
	r.g = streamgraph.New(sc.n, true)
	tr.timed(root, "streamgraph.load", func() { r.cur, _ = r.g.InsertEdges(sc.initial) })
	r.flatten(root, nil, nil)
	roots := core.TopDegreeRoots(r.cur, standingK)
	tr.timed(root, "standing.build", func() { r.mgr = standing.New(p, r.flat, roots, true) })
	tr.end(root)

	var err error
	switch t := primary.(type) {
	case *coreTarget:
		r.core = t
		r.http, err = newHTTPTarget([]string{name}, sc)
	case *httpTarget:
		r.http, r.httpMain = t, true
		r.core, err = newCoreTarget([]string{name}, sc)
	}
	return r, err
}

// close tears down the stack the rig built (the primary belongs to the
// run).
func (r *rig) close() {
	if r.httpMain {
		r.core.close()
	} else {
		r.http.close()
	}
}

// flatten builds the layer stack's mirror of r.cur — delta-patched from
// the parent's when prev is given, by a full walk otherwise — inside a
// span that carries the mirror-maintenance counter deltas, then retires
// the parent's mirror the way core does.
func (r *rig) flatten(parent int, prev *streamgraph.Snapshot, changed []graph.VertexID) {
	mm := r.g.MirrorMetrics()
	copied, gets, misses := mm.CopiedBytes.Value(), mm.SlabGets.Value(), mm.SlabMisses.Value()
	var id int
	if prev != nil {
		id = r.tr.timed(parent, "streamgraph.flatten_from", func() { r.flat = r.cur.FlattenFrom(prev.BuiltFlat(), changed) })
		prev.RetireFlat()
	} else {
		id = r.tr.timed(parent, "streamgraph.flatten_full", func() { r.flat = r.cur.Flatten() })
	}
	r.tr.count(id, "copied_bytes", float64(mm.CopiedBytes.Value()-copied))
	r.tr.count(id, "slab_gets", float64(mm.SlabGets.Value()-gets))
	r.tr.count(id, "slab_misses", float64(mm.SlabMisses.Value()-misses))
}

func (r *rig) countStats(id int, st engine.Stats) {
	r.tr.count(id, "activations", float64(st.Activations))
	r.tr.count(id, "relaxations", float64(st.Relaxations))
	r.tr.count(id, "iterations", float64(st.Iterations))
	r.tr.count(id, "dense_iterations", float64(st.DenseIterations))
}

// layerInsert re-performs an insert batch on the layer stack.
func (r *rig) layerInsert(edges []graph.Edge) {
	tr := r.tr
	root := tr.begin(0, "probe.insert")
	prev := r.cur
	var changed []graph.VertexID
	tr.timed(root, "streamgraph.insert", func() { r.cur, changed = r.g.InsertEdges(edges) })
	r.flatten(root, prev, changed)
	var st engine.Stats
	id := tr.timed(root, "standing.update", func() { st = r.mgr.Update(r.flat, changed) })
	r.countStats(id, st)
	tr.end(root)
}

// layerDelete re-performs a deletion batch on the layer stack: delete,
// rebuild the mirror in full (deletions invalidate span reuse), trim
// and re-derive the standing values that witnessed a deleted arc.
func (r *rig) layerDelete(edges []graph.Edge) {
	tr := r.tr
	// The trimmed recovery compares against the stored weight of each
	// deleted arc; RMAT duplicates keep the first weight seen, so
	// resolve it from the pre-deletion snapshot as core does.
	resolved := append([]graph.Edge(nil), edges...)
	for i := range resolved {
		if w, ok := r.cur.HasEdge(resolved[i].Src, resolved[i].Dst); ok {
			resolved[i].W = w
		}
	}
	root := tr.begin(0, "probe.delete")
	prev := r.cur
	tr.timed(root, "streamgraph.delete", func() { r.cur, _ = r.g.DeleteEdges(edges) })
	r.flatten(root, nil, nil)
	prev.RetireFlat()
	var st engine.Stats
	id := tr.timed(root, "standing.trim", func() { st = r.mgr.UpdateDeletions(r.flat, resolved, false) })
	r.countStats(id, st)
	tr.end(root)
}

// applySpan records one mutation applied through a core or serving
// stack, with what the backend reported about it.
func (r *rig) applySpan(name string, o op, m mutation, d time.Duration) {
	id := r.tr.record(0, name, d)
	r.tr.count(id, "edges", float64(len(o.edges)))
	r.tr.count(id, "backend_ns", float64(m.backend.Nanoseconds()))
	if o.kind == opInsert {
		r.tr.count(id, "insert", 1)
	}
	if name == "core.apply" {
		r.tr.count(id, "refresh_ns", float64(m.report.RefreshElapsed.Nanoseconds()))
		r.tr.count(id, "subscribers", float64(m.report.Subscribers))
		r.tr.count(id, "frames_sent", float64(m.report.FramesSent))
		r.tr.count(id, "frames_dropped", float64(m.report.FramesDropped))
	} else {
		now := r.http.counter("tripoline_shard_subbatches_total")
		r.tr.count(id, "subbatches", now-r.subMark)
		r.subMark = now
	}
}

// mirror follows one primary mutation (already applied, taking d): it
// records the primary's span, then applies the same batch to the layer
// stack and to the stack the primary is not, checking they publish the
// same version.
func (r *rig) mirror(o op, m mutation, d time.Duration) error {
	mainName, otherName, other := "core.apply", "server.apply", target(r.http)
	if r.httpMain {
		mainName, otherName, other = "server.apply", "core.apply", r.core
	}
	r.applySpan(mainName, o, m, d)
	if o.kind == opInsert {
		r.layerInsert(o.edges)
	} else {
		r.layerDelete(o.edges)
	}
	om, od, err := other.mutate(o)
	if err != nil {
		return fmt.Errorf("mirror %s: %w", otherName, err)
	}
	if om.version != m.version || r.cur.Version() != m.version {
		return fmt.Errorf("mirror %s: stacks out of lockstep (primary v%d, mirror v%d, layer v%d)", o.kind, m.version, om.version, r.cur.Version())
	}
	r.applySpan(otherName, o, om, od)
	other.drain()
	return nil
}

// noteQuery records a primary query op's span.
func (r *rig) noteQuery(o op, a answer, d time.Duration) {
	id := r.tr.record(0, "op."+o.kind.String(), d)
	r.tr.count(id, "backend_ns", float64(a.backend.Nanoseconds()))
	if a.body != nil {
		r.tr.count(id, "resp_bytes", float64(len(a.body)))
		r.tr.count(id, "cache_hit", b2f(a.cached))
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// probe re-performs one Δ-query (and its from-scratch pair) on a source
// of its own, at the current version, through every stack: stage by
// stage with the layer stack's standing state, then as one call into
// core.System, then as one HTTP request to the serving stack. The
// stages evaluate over the core stack's own pinned mirror — the very
// arrays core.System's call traverses — so the difference between the
// one call and the sum of the stages is core's own work rather than
// the cache state of two copies of the graph. All answers must agree.
func (r *rig) probe() error {
	ctx := context.Background()
	tr := r.tr
	u := r.sc.probeSources[r.nextProbe]
	r.nextProbe++
	tr.newOp()
	view, release, err := r.core.pinFlat()
	if err != nil {
		return err
	}
	defer release()
	if view.Version() != r.cur.Version() {
		return fmt.Errorf("probe: core stack at v%d, layer stack at v%d", view.Version(), r.cur.Version())
	}

	// From scratch first: the baseline, and it leaves the mirror as warm
	// for the stage-by-stage Δ run as that leaves it for core's.
	var (
		full      *engine.State
		fullStats engine.Stats
	)
	id := tr.timed(0, "engine.full_run", func() {
		full, fullStats, err = engine.RunCtx(ctx, view, r.p, []graph.VertexID{u})
	})
	if err != nil {
		return fmt.Errorf("probe full run: %w", err)
	}
	r.countStats(id, fullStats)
	want, _ := answer{values: full.Values}.digest()

	// The Δ-query, stage by stage.
	var (
		slot   int
		propUR uint64
		col    []uint64
		st     *engine.State
		init   []uint64
		stats  engine.Stats
	)
	root := tr.begin(0, "probe.delta")
	tr.timed(root, "standing.select", func() { slot, propUR = r.mgr.Select(u) })
	tr.timed(root, "standing.column", func() { col = r.mgr.StandingColumn(slot) })
	tr.timed(root, "engine.state_alloc", func() { st = engine.NewState(r.p, view.NumVertices(), 1) })
	tr.timed(root, "triangle.delta_init", func() {
		dst, _ := st.ColumnView(0)
		triangle.DeltaInitInto(dst, r.p, u, propUR, col)
	})
	tr.timed(root, "benchmark.copy_init", func() { init = append([]uint64(nil), st.Values...) })
	run := tr.timed(root, "engine.delta_run", func() {
		stats, err = st.RunPushCtx(ctx, view, []graph.VertexID{u}, []uint64{1})
	})
	tr.end(root)
	if err != nil {
		return fmt.Errorf("probe Δ run: %w", err)
	}
	r.countStats(run, stats)
	exact := 0
	for x, v := range full.Values {
		if init[x] == v {
			exact++
		}
	}
	tr.count(root, "init_exact", float64(exact)/float64(len(init)))
	if got, _ := (answer{values: st.Values}).digest(); got != want {
		return fmt.Errorf("probe %s(%d): stage-by-stage Δ answer differs from the from-scratch answer", r.problem, u)
	}

	// Core stack, one call.
	q := op{kind: opDelta, problem: r.problem, source: u}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a, d, err := r.core.query(q)
	runtime.ReadMemStats(&after)
	if err != nil {
		return fmt.Errorf("probe core query: %w", err)
	}
	id = tr.record(0, "core.query", d)
	tr.count(id, "backend_ns", float64(a.backend.Nanoseconds()))
	tr.count(id, "alloc_bytes", float64(after.TotalAlloc-before.TotalAlloc))
	if got, _ := a.digest(); got != want || a.version != r.cur.Version() {
		return fmt.Errorf("probe %s(%d): core.System answer differs from the layer stack's", r.problem, u)
	}

	// Serving stack, one request.
	rounds0 := r.http.counter("tripoline_shard_gather_rounds_total")
	runs0 := r.http.counter("tripoline_shard_scatter_runs_total")
	a, d, err = r.http.query(q)
	if err != nil {
		return fmt.Errorf("probe http query: %w", err)
	}
	id = tr.record(0, "server.query", d)
	tr.count(id, "backend_ns", float64(a.backend.Nanoseconds()))
	tr.count(id, "resp_bytes", float64(len(a.body)))
	tr.count(id, "cache_hit", b2f(a.cached))
	tr.count(id, "gather_rounds", r.http.counter("tripoline_shard_gather_rounds_total")-rounds0)
	tr.count(id, "scatter_runs", r.http.counter("tripoline_shard_scatter_runs_total")-runs0)
	if got, err := a.digest(); err != nil || got != want || a.version != r.cur.Version() {
		return fmt.Errorf("probe %s(%d): served answer differs from the layer stack's (%v)", r.problem, u, err)
	}
	return nil
}

// summarize stores the serving stack's admission counters over the
// measured rounds on the run's summary span.
func (r *rig) summarize(summary int) {
	r.tr.count(summary, "rejected", r.http.counter("tripoline_rejected_total"))
	r.tr.count(summary, "http_requests", r.http.counter("tripoline_queries_total")+r.http.counter("tripoline_queries_full_total")+
		r.http.counter("tripoline_batches_total")+r.http.counter("tripoline_deletes_total"))
}

// extras exercises, after the last round, the operation classes a
// workload's own script may not contain, so that every traced run has
// samples for every layer metric: subscription refresh on the core
// stack (three more insert batches with subscribers registered) and
// deletion on the layer stack (three deletion batches). The stacks
// leave lockstep here; nothing is compared afterwards.
func (r *rig) extras() error {
	if len(r.core.subs) == 0 {
		var subs []subscription
		for _, u := range r.sc.probeSources[len(r.sc.probeSources)-traceExtras:] {
			subs = append(subs, subscription{problem: r.problem, source: u})
		}
		if err := r.core.subscribe(context.Background(), subs); err != nil {
			return err
		}
	}
	for _, edges := range r.sc.extraInserts {
		r.tr.newOp()
		o := op{kind: opInsert, edges: edges}
		m, d, err := r.core.mutate(o)
		if err != nil {
			return err
		}
		r.applySpan("core.apply", o, m, d)
		r.core.drain()
	}
	for _, edges := range r.sc.extraDeletes {
		r.tr.newOp()
		r.layerDelete(edges)
	}
	return nil
}
