// Package tuner implements the basic K auto-tuner sketched in §5 of the
// paper: K (the number of standing queries per problem) trades
// standing-query maintenance cost against user-query speedup, and the
// right setting depends on the workload's ratio of user queries to
// update batches. The tuner measures both costs for a few candidate K
// values on a sample of the workload and picks the K minimizing the
// expected per-batch-cycle cost
//
//	cost(K) = standingTime(K) + queriesPerBatch × avgQueryTime(K)
//
// exactly the tradeoff discussion of §4.5.
//
// The K it picks is an upper bound: core builds each standing set at K
// roots and then narrows it to the roots its Δ-initialization meet uses
// (standing.Manager.Narrow). On min/max problems that is usually one root
// whatever the bound, so the candidates converge to the same set and
// their costs differ by noise alone.
package tuner

import (
	"fmt"
	"time"

	"tripoline/internal/core"
	"tripoline/internal/engine"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/streamgraph"
)

// Config describes one tuning run.
type Config struct {
	N        int          // vertex count
	Directed bool         //
	Initial  []graph.Edge // edges loaded before tuning
	Batches  [][]graph.Edge
	Problem  string
	// QueriesPerBatch is the expected number of user queries arriving
	// between consecutive update batches — the workload knob of §4.5.
	QueriesPerBatch float64
	// SampleQueries is how many user queries to time per K (default 8).
	SampleQueries int
	// Ks are the candidate values (default 1, 2, 4, 8, 16, 32, 64).
	Ks   []int
	Seed uint64
}

// Cost is the measured per-batch-cycle cost of one K.
type Cost struct {
	K        int
	Standing time.Duration // standing-query re-stabilization per batch
	// StandingWork is the counted engine work behind Standing, summed over
	// the measured batches — the same cost, independent of machine load.
	StandingWork engine.Stats
	Query        time.Duration // average Δ-based user query
	Total        time.Duration // Standing + QueriesPerBatch×Query
}

// Result is the tuning outcome.
type Result struct {
	Best  int
	Costs []Cost
}

func (r Result) String() string {
	s := fmt.Sprintf("auto-tuned K = %d\n", r.Best)
	for _, c := range r.Costs {
		s += fmt.Sprintf("  K=%-3d standing/batch=%-12v query=%-12v cycle=%v\n",
			c.K, c.Standing.Round(time.Microsecond), c.Query.Round(time.Microsecond),
			c.Total.Round(time.Microsecond))
	}
	return s
}

// TuneK measures every candidate K on a fresh copy of the workload and
// returns the measured costs and the chosen K. Each trial builds its own
// streaming graph from cfg.Initial, applies up to two batches to measure
// incremental maintenance, then times sample user queries.
func TuneK(cfg Config) (Result, error) {
	if cfg.Problem == "" {
		return Result{}, fmt.Errorf("tuner: no problem specified")
	}
	if len(cfg.Ks) == 0 {
		cfg.Ks = []int{1, 2, 4, 8, 16, 32, 64}
	}
	if cfg.SampleQueries == 0 {
		cfg.SampleQueries = 8
	}
	if cfg.QueriesPerBatch == 0 {
		cfg.QueriesPerBatch = 1
	}
	res := Result{}
	var bestTotal time.Duration
	for _, k := range cfg.Ks {
		c, err := measureK(cfg, k)
		if err != nil {
			return Result{}, err
		}
		res.Costs = append(res.Costs, c)
		if res.Best == 0 || c.Total < bestTotal {
			res.Best = k
			bestTotal = c.Total
		}
	}
	return res, nil
}

func measureK(cfg Config, k int) (Cost, error) {
	g := streamgraph.New(cfg.N, cfg.Directed)
	g.InsertEdges(cfg.Initial)
	sys := core.NewSystem(g, k)
	if err := sys.Enable(cfg.Problem); err != nil {
		return Cost{}, err
	}
	c := Cost{K: k}
	batches := 0
	for _, b := range cfg.Batches {
		if batches == 2 {
			break
		}
		rep := sys.ApplyBatch(b)
		c.Standing += rep.StandingElapsed
		c.StandingWork.Add(rep.StandingStats)
		batches++
	}
	if batches > 0 {
		c.Standing /= time.Duration(batches)
	}
	qs := gen.SampleSources(g.Acquire(), cfg.SampleQueries, cfg.Seed+uint64(k))
	for _, u := range qs {
		r, err := sys.Query(cfg.Problem, u)
		if err != nil {
			return Cost{}, err
		}
		c.Query += r.Elapsed
	}
	if len(qs) > 0 {
		c.Query /= time.Duration(len(qs))
	}
	c.Total = c.Standing + time.Duration(cfg.QueriesPerBatch*float64(c.Query))
	return c, nil
}
