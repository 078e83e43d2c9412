// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§6) on the synthetic stand-in
// graphs. Each experiment follows the paper's methodology (§6.1):
//
//   - load a preset fraction (50/60/70%) of a shuffled edge stream;
//   - stream the remaining edges in batches, re-stabilizing the standing
//     queries incrementally after each batch;
//   - evaluate a sample of non-trivial user queries (source degree > 2)
//     both Δ-based (incremental) and from scratch, repeatedly, and report
//     averaged speedups, times, and activation ratios.
//
// The package is consumed by cmd/tripoline-bench (full sweeps, flags) and
// by the top-level bench_test.go (one testing.B benchmark per table and
// figure at reduced defaults).
package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"tripoline/internal/core"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/streamgraph"
)

// Options configures an experiment sweep. Zero values select defaults
// sized to finish in minutes on a laptop; the paper-scale methodology
// (256 queries × 3 repeats, 5 batches per load point) is reached by
// raising Queries/Repeats/BatchesPerPoint and Scale.
type Options struct {
	Scale           int       // graph scale (1 = default laptop scale)
	Queries         int       // user queries sampled per configuration
	Repeats         int       // evaluations averaged per query
	K               int       // upper bound on standing queries per set (narrowed by the meet)
	BatchSize       int       // update batch size (edges)
	BatchesPerPoint int       // update batches applied per load point
	LoadFracs       []float64 // graph load points
	Problems        []string  // problem subset
	Graphs          []string  // graph subset (standard names)
	Seed            uint64
	Out             io.Writer // table destination (nil = io.Discard)
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.Queries == 0 {
		o.Queries = 24
	}
	if o.Repeats == 0 {
		o.Repeats = 1
	}
	if o.K == 0 {
		o.K = core.DefaultK
	}
	if o.BatchSize == 0 {
		o.BatchSize = 10_000
	}
	if o.BatchesPerPoint == 0 {
		o.BatchesPerPoint = 1
	}
	if len(o.LoadFracs) == 0 {
		o.LoadFracs = []float64{0.5, 0.6, 0.7}
	}
	if len(o.Problems) == 0 {
		o.Problems = []string{"SSSP", "SSWP", "Viterbi", "BFS", "SSNP", "SSR", "Radii", "SSNSP"}
	}
	if len(o.Graphs) == 0 {
		o.Graphs = []string{"OR-sim", "FR-sim", "LJ-sim", "TW-sim"}
	}
	if o.Seed == 0 {
		o.Seed = 0x7121
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
	return o
}

// Setup is one prepared streaming-graph experiment point: the system has
// loaded the initial fraction, enabled the problems, and applied
// BatchesPerPoint update batches.
type Setup struct {
	Sys     *core.System
	G       *streamgraph.Graph
	Stream  gen.Stream
	applied int
}

// Prepare builds the named standard graph at loadFrac, enables the given
// problems with K standing queries, and applies batches update batches.
func Prepare(name string, scale int, loadFrac float64, batchSize, k, batches int, problems []string, seed uint64) (*Setup, error) {
	cfg, ok := gen.ByName(name, scale)
	if !ok {
		return nil, fmt.Errorf("bench: unknown graph %q", name)
	}
	stream := gen.MakeStream(cfg.N(), gen.RMAT(cfg), cfg.Directed, loadFrac, batchSize, seed)
	g := streamgraph.New(cfg.N(), cfg.Directed)
	g.InsertEdges(stream.Initial)
	sys := core.NewSystem(g, k)
	for _, p := range problems {
		if err := sys.Enable(p); err != nil {
			return nil, err
		}
	}
	s := &Setup{Sys: sys, G: g, Stream: stream}
	for i := 0; i < batches && i < len(stream.Batches); i++ {
		sys.ApplyBatch(stream.Batches[i])
		s.applied++
	}
	return s, nil
}

// ApplyNextBatch streams one more update batch; it reports false when the
// stream is exhausted.
func (s *Setup) ApplyNextBatch() bool {
	if s.applied >= len(s.Stream.Batches) {
		return false
	}
	s.Sys.ApplyBatch(s.Stream.Batches[s.applied])
	s.applied++
	return true
}

// SampleQueries draws count distinct non-trivial user query sources
// (out-degree > 2, per §6.1) from the current snapshot.
func (s *Setup) SampleQueries(count int, seed uint64) []graph.VertexID {
	return gen.SampleSources(s.G.Acquire(), count, seed)
}

// QueryMeasurement is the measured outcome of one user query.
type QueryMeasurement struct {
	Source       graph.VertexID
	Speedup      float64 // full time / Δ-based time
	DeltaSeconds float64
	FullSeconds  float64
	// ActRatio is R_act (Eq. 11): Δ-based activations over full
	// activations. For SSNSP it is the counting-round ratio, matching the
	// paper's Table 4 note.
	ActRatio float64
	PropUR   uint64 // property(u, r*) of the chosen standing query
	// Work is the Δ-based evaluation's counted work (queryWork): engine
	// relaxations (both of SSNSP's rounds) plus the words its meet read,
	// lanes met × vertices, priced at meetWordCost.
	Work float64
}

// MeasureQuery evaluates one user query both ways, repeats times each,
// and returns averaged timings. Correctness is asserted: any divergence
// between the Δ-based and full values panics (the harness is also a
// continuous correctness check, per §4.3's experimental confirmation).
func (s *Setup) MeasureQuery(problem string, u graph.VertexID, repeats int) QueryMeasurement {
	var m QueryMeasurement
	m.Source = u
	var deltaActs, fullActs int64
	for rep := 0; rep < repeats; rep++ {
		full, err := s.Sys.QueryFull(problem, u)
		if err != nil {
			panic(err)
		}
		inc, err := s.Sys.Query(problem, u)
		if err != nil {
			panic(err)
		}
		for i := range full.Values {
			if full.Values[i] != inc.Values[i] {
				panic(fmt.Sprintf("bench: %s(%d) diverged at %d: Δ=%d full=%d",
					problem, u, i, inc.Values[i], full.Values[i]))
			}
		}
		m.DeltaSeconds += inc.Elapsed.Seconds()
		m.FullSeconds += full.Elapsed.Seconds()
		m.Work += queryWork(inc.Stats.Relaxations, inc.LanesMet*len(inc.Values)/inc.Width)
		if problem == "SSNSP" {
			deltaActs, fullActs = inc.CountStats.Activations, full.CountStats.Activations
		} else {
			deltaActs, fullActs = inc.Stats.Activations, full.Stats.Activations
		}
		m.PropUR = inc.PropUR
	}
	m.DeltaSeconds /= float64(repeats)
	m.FullSeconds /= float64(repeats)
	m.Work /= float64(repeats)
	if m.DeltaSeconds > 0 {
		m.Speedup = m.FullSeconds / m.DeltaSeconds
	}
	if fullActs > 0 {
		m.ActRatio = float64(deltaActs) / float64(fullActs)
	}
	return m
}

// MeasureQueries measures a batch of user queries.
func (s *Setup) MeasureQueries(problem string, qs []graph.VertexID, repeats int) []QueryMeasurement {
	out := make([]QueryMeasurement, len(qs))
	for i, u := range qs {
		out[i] = s.MeasureQuery(problem, u, repeats)
	}
	return out
}

// Aggregate summarizes a measurement batch.
type Aggregate struct {
	MeanSpeedup  float64
	StdevSpeedup float64
	MeanDeltaSec float64
	MeanActRatio float64
	StdActRatio  float64
	MeanWork     float64
	N            int
}

// Aggregate reduces measurements to the entry format of Tables 3 and 4:
// average speedup [stddev, average Δ-based seconds] and the activation
// ratio statistics.
func AggregateMeasurements(ms []QueryMeasurement) Aggregate {
	var a Aggregate
	a.N = len(ms)
	if a.N == 0 {
		return a
	}
	for _, m := range ms {
		a.MeanSpeedup += m.Speedup
		a.MeanDeltaSec += m.DeltaSeconds
		a.MeanActRatio += m.ActRatio
		a.MeanWork += m.Work
	}
	n := float64(a.N)
	a.MeanSpeedup /= n
	a.MeanDeltaSec /= n
	a.MeanActRatio /= n
	a.MeanWork /= n
	for _, m := range ms {
		a.StdevSpeedup += (m.Speedup - a.MeanSpeedup) * (m.Speedup - a.MeanSpeedup)
		a.StdActRatio += (m.ActRatio - a.MeanActRatio) * (m.ActRatio - a.MeanActRatio)
	}
	a.StdevSpeedup = math.Sqrt(a.StdevSpeedup / n)
	a.StdActRatio = math.Sqrt(a.StdActRatio / n)
	return a
}

// SortedSpeedups returns the per-query speedups in ascending order — the
// series plotted in Figure 11.
func SortedSpeedups(ms []QueryMeasurement) []float64 {
	out := make([]float64, len(ms))
	for i, m := range ms {
		out[i] = m.Speedup
	}
	sort.Float64s(out)
	return out
}

// fmtSeconds renders a duration in the paper's seconds format.
func fmtSeconds(d time.Duration) string {
	return fmt.Sprintf("%.2f", d.Seconds())
}
