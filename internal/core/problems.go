package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"tripoline/internal/engine"
	"tripoline/internal/graph"
	"tripoline/internal/props"
)

// ProblemDef is what a named problem is — the one place that says so. A
// user query of the problem rooted at u is the engine evaluation of Base
// from Sources(u), Δ-initialized out of the standing set maintained for
// Base (§4.1: the set supplies the column property(r,·) and the scalar
// property(u,r), nothing else), and then Answer over the converged values.
// Problems with the same Base share one standing set.
type ProblemDef struct {
	Name string
	// Base is the engine.Problem whose standing set bounds the problem and
	// whose kernel evaluates it: the problem itself for the six simple
	// problems and for custom ones, SSSP for Radii (Table 1's
	// dist1..dist16), BFS for SSNSP (its conditional triangle applies to
	// the levels only — see props.CountShortestPaths). Nil for PageRank
	// and CC, which need no triangle: their answer is maintained whole.
	Base engine.Problem
	// sources derives the evaluation's sources from u over an n-vertex
	// graph; nil means {u}.
	sources func(u graph.VertexID, n int) []graph.VertexID
	// finish completes res from its converged Values; nil means they are
	// the answer.
	finish func(ctx context.Context, g engine.ArcView, res *QueryResult) error
	// maintain builds the maintained answer of a Base-less problem.
	maintain func(g View) handler
}

// LookupProblem returns the definition of a built-in problem.
func LookupProblem(name string) (ProblemDef, bool) {
	switch name {
	case "BFS", "SSSP", "SSWP", "SSNP", "Viterbi", "SSR":
		return ProblemDef{Name: name, Base: props.Registry()[name]}, true
	case "Radii":
		return ProblemDef{Name: name, Base: props.SSSP{}, sources: RadiiSources, finish: radiiFinish}, true
	case "SSNSP":
		return ProblemDef{Name: name, Base: props.BFS{}, finish: countFinish}, true
	case "PageRank":
		return ProblemDef{Name: name, maintain: newPageRankHandler}, true
	case "CC":
		return ProblemDef{Name: name, maintain: newCCHandler}, true
	}
	return ProblemDef{}, false
}

// CustomProblem is the definition of a user-defined triangle problem: its
// own standing set, source {u}, no finish step. Standing sets are keyed by
// problem name, so a built-in's name is refused — the custom problem would
// share (or be shared as) the built-in's set.
func CustomProblem(p engine.Problem) (ProblemDef, error) {
	if _, builtin := LookupProblem(p.Name()); builtin {
		return ProblemDef{}, fmt.Errorf("core: custom problem named after built-in %s: %w", p.Name(), ErrReservedName)
	}
	return ProblemDef{Name: p.Name(), Base: p}, nil
}

// Sources returns the sources of the problem's evaluation rooted at u
// over an n-vertex graph.
func (d ProblemDef) Sources(u graph.VertexID, n int) []graph.VertexID {
	if d.sources == nil {
		return []graph.VertexID{u}
	}
	return d.sources(u, n)
}

// Batchable reports whether QueryMany can evaluate the problem: one slot
// per query and nothing to run afterwards.
func (d ProblemDef) Batchable() bool { return d.Base != nil && d.sources == nil && d.finish == nil }

// Subscribable reports whether the problem's answer is one value per
// vertex (plus SSNSP's counts) — what a delta frame can carry. Radii's
// width-16 answers are not.
func (d ProblemDef) Subscribable() bool { return d.sources == nil }

// Answer assembles the problem's result from the converged values of its
// evaluation (width values per vertex, interleaved) over g, running the
// finish step. stats is the engine work that converged them.
func (d ProblemDef) Answer(ctx context.Context, g engine.ArcView, u graph.VertexID, values []uint64, width int, stats engine.Stats) (*QueryResult, error) {
	res := &QueryResult{Problem: d.Name, Source: u, Values: values, Width: width, Stats: stats}
	if d.finish != nil {
		if err := d.finish(ctx, g, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// RadiiSources derives the deterministic SSSP sources of a Radii query
// rooted at u over an n-vertex graph: slot 0 is u itself and the
// remaining props.NumRadiiSources-1 helpers are a splitmix-style
// sequence seeded by u.
func RadiiSources(u graph.VertexID, n int) []graph.VertexID {
	out := make([]graph.VertexID, props.NumRadiiSources)
	out[0] = u
	seed := uint64(u)*0x9E3779B97F4A7C15 + 1
	for i := 1; i < len(out); i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		out[i] = graph.VertexID((seed >> 17) % uint64(n))
	}
	return out
}

// radiiFinish reduces the 16 SSSP slots to the radius estimate.
func radiiFinish(_ context.Context, _ engine.ArcView, res *QueryResult) error {
	res.Radius = props.RadiiEstimate(res.Values, len(res.Values)/res.Width, res.Width)
	return nil
}

// countFinish is SSNSP's second round: the exact shortest-path count over
// the converged BFS levels.
func countFinish(ctx context.Context, g engine.ArcView, res *QueryResult) error {
	counts, stats, err := props.CountShortestPaths(ctx, g, res.Source, res.Values)
	if err != nil {
		return err
	}
	res.Counts, res.CountStats = counts, stats
	res.Stats.Add(stats)
	return nil
}

// handler is a maintained answer: the whole-graph problems (no triangle
// needed) are kept converged like classic streaming systems keep them, and
// a query reads the answer off. Maintenance never takes a context — a
// half-maintained answer would desync from its version. The evaluator's
// mu guards the state: the writer maintains under the exclusive lock,
// values is called under either.
type handler interface {
	// update re-stabilizes after an insertion batch, rebuild after
	// deletions (from scratch, which is always sound).
	update(g View, changed []graph.VertexID) engine.Stats
	rebuild(g View) engine.Stats
	lastMaintain() time.Duration
	// values returns a fresh copy of the answer and the version it
	// converged at, which can trail the latest while a mutation is in
	// flight.
	values() ([]uint64, uint64)
	// full evaluates the answer from scratch over g.
	full(ctx context.Context, g View) ([]uint64, engine.Stats, error)
}

type pageRankHandler struct {
	ranks   []float64
	version uint64
	last    time.Duration
}

func newPageRankHandler(g View) handler {
	h := &pageRankHandler{}
	h.rebuild(g)
	return h
}

// converged installs a PageRank run started at start over g.
func (h *pageRankHandler) converged(g View, res *props.PageRankResult, start time.Time) engine.Stats {
	h.ranks, h.version, h.last = res.Ranks, g.Version(), time.Since(start)
	return engine.Stats{Iterations: res.Iterations}
}

func (h *pageRankHandler) update(g View, _ []graph.VertexID) engine.Stats {
	start := time.Now()
	return h.converged(g, props.PageRank(g, h.ranks, 0.85, 100, 1e-9), start)
}

func (h *pageRankHandler) rebuild(g View) engine.Stats {
	start := time.Now()
	return h.converged(g, props.PageRank(g, nil, 0.85, 100, 1e-9), start)
}

func (h *pageRankHandler) lastMaintain() time.Duration { return h.last }

func (h *pageRankHandler) values() ([]uint64, uint64) { return RankBits(h.ranks), h.version }

func (h *pageRankHandler) full(ctx context.Context, g View) ([]uint64, engine.Stats, error) {
	res, err := props.PageRankCtx(ctx, g, nil, 0.85, 100, 1e-9)
	if err != nil {
		return nil, engine.Stats{}, err
	}
	return RankBits(res.Ranks), engine.Stats{Iterations: res.Iterations}, nil
}

// RankBits encodes PageRank's float ranks as the uint64 values every
// result carries.
func RankBits(ranks []float64) []uint64 {
	vals := make([]uint64, len(ranks))
	for i, r := range ranks {
		vals[i] = math.Float64bits(r)
	}
	return vals
}

type ccHandler struct {
	st      *engine.State
	version uint64
	last    time.Duration
}

func newCCHandler(g View) handler {
	h := &ccHandler{}
	h.rebuild(g)
	return h
}

func (h *ccHandler) update(g View, changed []graph.VertexID) engine.Stats {
	start := time.Now()
	stats := props.ResumeConnectedComponents(g, h.st, changed)
	h.version, h.last = g.Version(), time.Since(start)
	return stats
}

func (h *ccHandler) rebuild(g View) engine.Stats {
	start := time.Now()
	st, stats := props.ConnectedComponents(g)
	h.st, h.version, h.last = st, g.Version(), time.Since(start)
	return stats
}

func (h *ccHandler) lastMaintain() time.Duration { return h.last }

func (h *ccHandler) values() ([]uint64, uint64) {
	return append([]uint64(nil), h.st.Values...), h.version
}

func (h *ccHandler) full(ctx context.Context, g View) ([]uint64, engine.Stats, error) {
	st, stats, err := props.ConnectedComponentsCtx(ctx, g)
	if err != nil {
		return nil, engine.Stats{}, err
	}
	return st.Values, stats, nil
}
