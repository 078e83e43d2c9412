package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/parallel"
	"tripoline/internal/standing"
	"tripoline/internal/triangle"
)

// Pin returns a view of the latest version, pinned, and the release of
// that pin. The evaluator calls it under its shared lock (pinShared), so
// the view and the standing state it Δ-initializes from describe the same
// version; it must not call back into the evaluator.
type Pin func() (View, func())

// evaluator is the part of a System that evaluates: the enabled problems
// (problems.go), one standing set per distinct engine problem they
// evaluate and the maintained answers of PageRank and CC, the lock that
// pairs all of them with the version they converged on, their maintenance
// after each mutation, the Δ-based, batched and full evaluations of user
// queries, and the subscriptions refreshed after each mutation
// (subscribe.go). It owns no graph: it evaluates over the View of a
// published snapshot its System hands it (view.go).
type evaluator struct {
	// k is the width a standing set is built at, before Narrow.
	k        int
	directed bool
	// mu pairs the standing state with a version. A writer holds it
	// exclusively from before it publishes a version until maintenance has
	// converged on it, and inside that window maintains the standing sets
	// concurrently (maintainSets). A reader holds
	// it shared only while it pins the latest version and Δ-initializes
	// out of the standing arrays (pinShared), never across an engine run,
	// so reader parallelism is preserved. A reader therefore never pairs
	// standing bounds with a version they were not maintained for: after
	// an insertion they would be too good for an older view, after a
	// deletion for a newer one, and monotone relaxation cannot repair a
	// bound that is too good.
	mu sync.RWMutex
	// problems holds the enabled problems; order preserves enable order
	// for deterministic iteration.
	problems map[string]*problem
	order    []string
	// sets holds one standing set per distinct ProblemDef.Base (found by
	// its name), in creation order: whichever enabled problem needs a set
	// first creates it (its roots are chosen then) and every later problem
	// with the same Base shares it, so a mutation maintains each set once.
	// answers are the Base-less problems' maintained answers.
	sets    []*standing.Manager
	answers []handler
	// subMu guards the subscription registry (subscribe.go). Lock order:
	// mu before subMu. The writer maintains the lanes in the standing sets
	// under mu alone, so installing or freeing one takes mu shared, then
	// subMu. lanes indexes each set's subscribed lanes by id (nil where
	// free); whole holds the latest maintained answer of every subscribed
	// PageRank or CC; catchups holds the batch logs of subscribes still
	// evaluating their snapshot.
	subMu    sync.Mutex
	subs     map[uint64]*Subscription
	subSeq   uint64
	lanes    map[*standing.Manager][]*lane
	whole    map[string][]uint64
	catchups map[*catchup]struct{}
	// evaluated, when set (tests only), runs after each snapshot
	// evaluation or catch-up of a subscribe, before its install.
	evaluated func(caughtUp bool)
}

// newEvaluator returns an evaluator with at most k standing queries per
// standing set (clamped to [1, 64]; 0 selects DefaultK) over a graph of
// the given orientation.
func newEvaluator(k int, directed bool) *evaluator {
	if k == 0 {
		k = DefaultK
	}
	if k < 1 {
		k = 1
	}
	if k > 64 {
		k = 64
	}
	return &evaluator{
		k: k, directed: directed, problems: make(map[string]*problem),
		subs: make(map[uint64]*Subscription), lanes: make(map[*standing.Manager][]*lane), whole: make(map[string][]uint64),
		catchups: make(map[*catchup]struct{}),
	}
}

// TopDegreeRoots is standing.TopDegreeRoots: the top-k out-degree
// vertices of g, the roots every standing set is built at before Narrow.
func TopDegreeRoots(g standing.Degrees, k int) []graph.VertexID {
	return standing.TopDegreeRoots(g, k)
}

// problem is an enabled problem: its definition plus the standing set
// that bounds it (shared with every enabled problem of the same Base) or,
// for a Base-less problem, its maintained answer.
type problem struct {
	ProblemDef
	set *standing.Manager
	ans handler
}

// Enable sets up def over g, the latest version. The standing set of its
// Base is built by the root rule (standing.Rooted: the top-K out-degree
// roots, narrowed to those their meet uses), unless an enabled
// problem already maintains it — Radii shares SSSP's set and SSNSP shares
// BFS's, in whichever order they are enabled; a Base-less problem's answer
// is evaluated whole. Enable is setup-phase API: it is not synchronized
// against mutations or queries.
func (ev *evaluator) Enable(def ProblemDef, g View) error {
	if _, dup := ev.problems[def.Name]; dup {
		return fmt.Errorf("core: problem %s already enabled", def.Name)
	}
	pr := &problem{ProblemDef: def}
	if def.Base == nil {
		pr.ans = def.maintain(g)
		ev.answers = append(ev.answers, pr.ans)
	} else if pr.set = ev.setFor(def.Base.Name()); pr.set == nil {
		pr.set = standing.Rooted(def.Base, g, ev.k, ev.directed)
		ev.sets = append(ev.sets, pr.set)
	}
	ev.problems[def.Name] = pr
	ev.order = append(ev.order, def.Name)
	return nil
}

// setFor returns the standing set maintained for the named Base, or nil.
func (ev *evaluator) setFor(base string) *standing.Manager {
	for _, set := range ev.sets {
		if set.Problem.Name() == base {
			return set
		}
	}
	return nil
}

// Enabled lists enabled problems in enable order.
func (ev *evaluator) Enabled() []string { return append([]string(nil), ev.order...) }

// lookup resolves an enabled problem.
func (ev *evaluator) lookup(name string) (*problem, error) {
	pr, ok := ev.problems[name]
	if !ok {
		return nil, fmt.Errorf("core: problem %q not enabled: %w", name, ErrUnknownProblem)
	}
	return pr, nil
}

// sourceInRange validates a user-query source against a version with n
// vertices.
func sourceInRange(u graph.VertexID, n int, version uint64) error {
	if int(u) >= n {
		return fmt.Errorf("core: source %d out of range (version %d has %d vertices): %w",
			u, version, n, ErrSourceOutOfRange)
	}
	return nil
}

// ---------------------------------------------------------------------
// Maintenance: the writer's side of mu.

// inserted, deleted and stamp are the maintenance steps of the writer's
// exclusive window (System.publish), which holds mu: inserted maintains
// every standing set and maintained answer onto g, the version an
// insertion batch produced from the one they stand on (changed lists the
// sources whose adjacency changed, sorted); deleted does so after a
// deletion batch that removed arcs (deleted lists the requested edges at
// the weights the graph stored for them); stamp records the version of a
// deletion batch that removed nothing — the graph is the one the state
// already stands on, so no view of it is needed and the maintained answers
// keep the version they converged at. Standing sets resume from the arcs
// the batch stored, or recover by witness-based trimming (package
// standing), their subscribed lanes with them, all sets at once
// (maintainSets); maintained answers then resume after insertions and
// re-evaluate from scratch after deletions, which is always sound, one
// after another. inserted and deleted then refresh the subscriptions on g;
// the report carries the standing maintenance work and the subscription
// fan-out.
func (ev *evaluator) inserted(ctx context.Context, g View, changed []graph.VertexID) BatchReport {
	var rep BatchReport
	ev.maintainSets(&rep, func(set *standing.Manager) engine.Stats { return set.Update(g, changed) })
	for _, ans := range ev.answers {
		rep.StandingStats.Add(ans.update(g, changed))
	}
	ev.refreshSubscriptions(ctx, g, &rep, changed, false)
	return rep
}

func (ev *evaluator) deleted(ctx context.Context, g View, deleted []graph.Edge) BatchReport {
	var rep BatchReport
	ev.maintainSets(&rep, func(set *standing.Manager) engine.Stats {
		return set.UpdateDeletions(g, deleted, !ev.directed)
	})
	for _, ans := range ev.answers {
		rep.StandingStats.Add(ans.rebuild(g))
	}
	ev.refreshSubscriptions(ctx, g, &rep, nil, true)
	return rep
}

// maintainSets runs maintain on every standing set concurrently and adds
// their work to rep in set order, so the report does not depend on the
// schedule. Each set owns its state (roots, reversed state, lanes); what
// the sets share — the view, the batch's arcs, the view's transpose — they
// only read, and a mirror builds its transpose under its own lock
// (streamgraph.Flat.Transposed). The sets are few and of uneven cost,
// so each is one unit of work, and each parallelizes its own passes.
func (ev *evaluator) maintainSets(rep *BatchReport, maintain func(*standing.Manager) engine.Stats) {
	stats := make([]engine.Stats, len(ev.sets))
	parallel.ForGrain(len(ev.sets), 1, func(i int) { stats[i] = maintain(ev.sets[i]) })
	for _, st := range stats {
		rep.StandingStats.Add(st)
	}
}

func (ev *evaluator) stamp(version uint64) {
	for _, set := range ev.sets {
		set.StampVersion(version)
	}
}

// ReselectRoots re-applies the root rule to the standing set that bounds
// the named problem over g, the latest version (standing.Manager.Reroot,
// the path Enable builds the set by): the top-K out-degree roots of g are
// evaluated and narrowed, the one place a set widens again. It
// holds the exclusive lock, like batch maintenance, because re-rooting
// rewrites the standing arrays wholesale; the caller keeps g the latest
// version throughout (the System holds its apply token). The set is what
// is re-rooted: every enabled problem sharing it (Radii with SSSP, SSNSP
// with BFS) selects from the new roots afterwards.
func (ev *evaluator) ReselectRoots(name string, g View) error {
	pr, err := ev.lookup(name)
	if err != nil {
		return err
	}
	if pr.set == nil {
		return fmt.Errorf("core: problem %q does not use standing roots", name)
	}
	ev.mu.Lock()
	defer ev.mu.Unlock()
	pr.set.Reroot(g, ev.k)
	return nil
}

// MaintainTime returns the wall time and the roots' engine work of the
// most recent (re-)evaluation of the standing set that bounds the named
// problem — the set's, so problems sharing one report the same figures —
// or the wall time of its maintained answer, with no work counted.
func (ev *evaluator) MaintainTime(name string) (time.Duration, engine.Stats, error) {
	pr, err := ev.lookup(name)
	if err != nil {
		return 0, engine.Stats{}, err
	}
	ev.mu.RLock()
	defer ev.mu.RUnlock()
	if pr.set == nil {
		return pr.ans.lastMaintain(), engine.Stats{}, nil
	}
	return pr.set.LastMaintain, pr.set.LastStats, nil
}

// ---------------------------------------------------------------------
// Queries: the readers' side of mu.

// Query answers a user query of the named problem rooted at u at the
// latest version, which pin supplies: read off the maintained answer, or
// evaluated Δ-based from the problem's standing set under cooperative
// cancellation — the engine checks ctx at every superstep boundary. The
// standing arrays are never written by a user query (Δ-initialization
// only reads them), so cancellation at any point is safe.
func (ev *evaluator) Query(ctx context.Context, name string, u graph.VertexID, pin Pin) (*QueryResult, error) {
	pr, err := ev.lookup(name)
	if err != nil {
		return nil, err
	}
	return ev.query(ctx, pr, u, pin)
}

func (ev *evaluator) query(ctx context.Context, pr *problem, u graph.VertexID, pin Pin) (*QueryResult, error) {
	if pr.set == nil {
		// Nothing to cancel.
		ev.mu.RLock()
		vals, version := pr.ans.values()
		ev.mu.RUnlock()
		if err := sourceInRange(u, len(vals), version); err != nil {
			return nil, err
		}
		return &QueryResult{Problem: pr.Name, Source: u, Values: vals, Width: 1, Incremental: true, Version: version}, nil
	}
	start := time.Now()
	q, view, release, err := ev.evalDelta(ctx, pr.set, pin, func(g View) ([]graph.VertexID, error) {
		if err := sourceInRange(u, g.NumVertices(), g.Version()); err != nil {
			return nil, err
		}
		return pr.Sources(u, g.NumVertices()), nil
	})
	if err != nil {
		return nil, err
	}
	defer release()
	res, err := pr.Answer(ctx, view, u, q.st.Interleaved(), q.st.K, q.stats)
	if err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	res.Incremental, res.StandingSlot, res.PropUR = true, q.slots[0], q.propURs[0]
	res.LanesMet = q.lanesMet
	res.Version = view.Version()
	return res, nil
}

// QueryMany evaluates up to 64 same-problem user queries at the latest
// version, which pin supplies, in one batched Δ-based evaluation. The
// result values are identical to issuing each Query separately; the work
// is the batch-mode coalesced version. One deadline covers the whole batch
// (it runs under a single combined frontier, so per-query cancellation is
// not meaningful).
func (ev *evaluator) QueryMany(ctx context.Context, name string, sources []graph.VertexID, pin Pin) (*MultiResult, error) {
	pr, err := ev.lookup(name)
	if err != nil {
		return nil, err
	}
	if !pr.Batchable() {
		return nil, fmt.Errorf("core: problem %q does not support batched user queries", name)
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("core: no sources")
	}
	if len(sources) > 64 {
		return nil, fmt.Errorf("core: at most 64 queries per batch (got %d)", len(sources))
	}
	start := time.Now()
	q, view, release, err := ev.evalDelta(ctx, pr.set, pin, func(g View) ([]graph.VertexID, error) {
		for _, u := range sources {
			if err := sourceInRange(u, g.NumVertices(), g.Version()); err != nil {
				return nil, err
			}
		}
		return sources, nil
	})
	if err != nil {
		return nil, err
	}
	defer release()
	return &MultiResult{
		Problem: name, Sources: sources,
		Values: q.st.Interleaved(), Width: len(sources),
		Stats: q.stats, Slots: q.slots, PropURs: q.propURs,
		Elapsed: time.Since(start), Version: view.Version(),
	}, nil
}

// QueryFull answers a user query of the named problem rooted at u from
// scratch over g — the non-incremental baseline the paper's speedups
// compare against, and the only evaluation valid at a version the
// standing state has moved past — stamped with g's version. The caller
// pins g.
func (ev *evaluator) QueryFull(ctx context.Context, name string, u graph.VertexID, g View) (*QueryResult, error) {
	pr, err := ev.lookup(name)
	if err != nil {
		return nil, err
	}
	if err := sourceInRange(u, g.NumVertices(), g.Version()); err != nil {
		return nil, err
	}
	res, err := pr.queryFull(ctx, g, u)
	if err != nil {
		return nil, err
	}
	res.Version = g.Version()
	return res, nil
}

// queryFull answers one user query from scratch over g: the maintained
// answer's own full evaluation, or the engine from the problem's sources.
func (pr *problem) queryFull(ctx context.Context, g View, u graph.VertexID) (res *QueryResult, err error) {
	start := time.Now()
	if pr.set == nil {
		vals, stats, err := pr.ans.full(ctx, g)
		if err != nil {
			return nil, err
		}
		res = &QueryResult{Problem: pr.Name, Source: u, Values: vals, Width: 1, Stats: stats}
	} else {
		st, stats, err := engine.RunCtx(ctx, g, pr.Base, pr.Sources(u, g.NumVertices()))
		if err != nil {
			return nil, err
		}
		if res, err = pr.Answer(ctx, g, u, st.Interleaved(), st.K, stats); err != nil {
			return nil, err
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// pinShared pins the latest view with pin and runs initFn on it while the
// shared lock is held: under it no mutation is inside its publish+maintain
// window, so the pinned view and the standing arrays describe the same
// version (see mu). initFn must copy whatever it needs out of the standing
// state and must not run the engine; the caller runs the engine on the
// returned (pinned) view after pinShared returns, outside the lock, and
// releases the view once it has read the answer off it.
func (ev *evaluator) pinShared(pin Pin, initFn func(View) error) (View, func(), error) {
	ev.mu.RLock()
	defer ev.mu.RUnlock()
	view, release := pin()
	if err := initFn(view); err != nil {
		release()
		return nil, nil, err
	}
	return view, release, nil
}

// evaluation is one Δ-based evaluation of a standing set's problem from
// sources, one slot each: deltaInit prepares it out of the standing
// arrays, run converges it.
type evaluation struct {
	sources []graph.VertexID
	st      *engine.State
	stats   engine.Stats
	// slots and propURs record each source's best standing root (Eq. 15),
	// the first of the lanes its Δ-initialization meets over.
	slots   []int
	propURs []uint64
	// lanesMet sums the lanes each slot's meet read, every one over all N
	// vertices.
	lanesMet int
}

// deltaInit allocates the width-len(sources) state and Δ-initializes each
// slot with the meet over the standing roots Manager.Meet keeps for its
// source, in one blocked pass that reads the roots' slots in place in the
// standing state's storage and writes straight into the new state's. The
// caller holds mu (shared under pinShared, or exclusive in the writer's
// window) and runs the engine after letting go of the shared lock. Each
// slot is an O(N) parallel pass, so cancellation is honored between
// slots as well as inside the engine run.
func deltaInit(ctx context.Context, set *standing.Manager, sources []graph.VertexID) (*evaluation, error) {
	p, n, w := set.Problem, set.Forward.N, len(sources)
	q := &evaluation{sources: sources, slots: make([]int, w), propURs: make([]uint64, w)}
	if w == 1 {
		// The one column is written whole by the Δ-init below, so it is not
		// filled with the init value first: a width-1 query over a min/max
		// problem is little more than this pass.
		q.st = &engine.State{P: p, K: 1, N: n, Values: make([]uint64, n)}
	} else {
		q.st = engine.NewState(p, n, w)
	}
	src, srcStride, _ := set.Forward.StrideView(0)
	lanes := make([]triangle.Lane, 0, len(set.Roots))
	for j, u := range sources {
		if err := ctx.Err(); err != nil {
			return nil, &engine.CanceledError{Cause: err}
		}
		lanes, q.slots[j], q.propURs[j] = set.Meet(lanes, u)
		q.lanesMet += len(lanes)
		dst, dstStride, dstOff := q.st.StrideView(j)
		triangle.DeltaInitMeet(dst, dstStride, dstOff, p, u, lanes, src, srcStride, n)
	}
	return q, nil
}

// run converges the Δ-initialized state over g. The Δ-initialization is
// triangle-consistent — every value is the ⊕-best over kept roots r of
// property(u,r) ⊕ property(r,x), each term read from a fixpoint column
// over the graph g describes, so their meet is a fixpoint everywhere but
// at the sources — so the sources alone seed it.
func (q *evaluation) run(ctx context.Context, g engine.ArcView) (err error) {
	seeds, masks := engine.SourceSeeds(q.sources)
	q.stats, err = q.st.RunPushCtx(ctx, g, seeds, masks)
	return err
}

// evalDelta is the one Δ-based evaluation every reader runs: pin the
// latest view and Δ-initialize from set as one step under the shared lock
// (pinShared), then converge on the pinned view outside it. sourcesOf
// derives (and validates) the sources from the pinned view. The caller
// releases the view once it has read the answer off it.
func (ev *evaluator) evalDelta(ctx context.Context, set *standing.Manager, pin Pin, sourcesOf func(View) ([]graph.VertexID, error)) (*evaluation, View, func(), error) {
	var q *evaluation
	view, release, err := ev.pinShared(pin, func(g View) error {
		sources, err := sourcesOf(g)
		if err != nil {
			return err
		}
		q, err = deltaInit(ctx, set, sources)
		return err
	})
	if err != nil {
		return nil, nil, nil, err
	}
	if err := q.run(ctx, view); err != nil {
		release()
		return nil, nil, nil, err
	}
	return q, view, release, nil
}
