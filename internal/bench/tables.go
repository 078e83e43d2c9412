package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"tripoline/internal/dd"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/oracle"
	"tripoline/internal/props"
	"tripoline/internal/standing"
	"tripoline/internal/triangle"
	"tripoline/internal/tuner"
)

// Table1 prints the benchmark registry: the eight vertex-specific
// problems with their triangle operators — the code-level counterpart of
// the paper's Table 1 (vertex functions).
func Table1(w io.Writer) {
	fmt.Fprintln(w, "Table 1: Benchmarks (vertex function = CAS-relax with the ops below)")
	fmt.Fprintf(w, "%-8s %-22s %-14s %-10s\n", "Bench.", "property", "⊕ (Combine)", "⪰ (order)")
	rows := [][4]string{
		{"BFS", "min #edges on path", "saturating +", "min is better"},
		{"SSSP", "min path weight", "saturating +", "min is better"},
		{"SSWP", "max min-edge (width)", "min", "max is better"},
		{"SSNP", "min max-edge (narrow)", "max", "min is better"},
		{"Viterbi", "max prob = 1/Πw", "× (saturating)", "max prob is better"},
		{"SSR", "reachability 0/1", "logical AND", "reached is better"},
		{"Radii", "16 × SSSP, max dist", "per-slot SSSP ⊕", "per-slot SSSP"},
		{"SSNSP", "BFS level + #paths", "+ (conditional)", "min level"},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %-22s %-14s %-10s\n", r[0], r[1], r[2], r[3])
	}
}

// Table2 prints the statistics of the four stand-in input graphs (the
// analogue of the paper's Table 2, with the substitution documented in
// DESIGN.md §5).
func Table2(w io.Writer, scale int) []graph.Stats {
	fmt.Fprintln(w, "Table 2: Statistics of Input Graphs (synthetic RMAT stand-ins)")
	var out []graph.Stats
	for _, cfg := range gen.Standard(scale) {
		g := graph.FromEdges(cfg.N(), gen.RMAT(cfg), cfg.Directed)
		st := g.Statistics(cfg.Name)
		out = append(out, st)
		fmt.Fprintln(w, st.String())
	}
	return out
}

// Table3Cell is one (graph-frac, problem) entry of Table 3.
type Table3Cell struct {
	Graph   string
	Frac    float64
	Problem string
	Agg     Aggregate
}

// Table3 reproduces the headline speedup table: Δ-based incremental
// evaluation over non-incremental evaluation, per problem × graph ×
// load fraction. Entries follow the paper's format:
// speedup [stddev, avg Δ-based seconds].
func Table3(o Options) []Table3Cell {
	o = o.withDefaults()
	w := o.Out
	fmt.Fprintln(w, "Table 3: Speedups of Δ-based Incremental Evaluation over Non-Incremental")
	fmt.Fprintf(w, "%-8s", "Graph")
	for _, p := range o.Problems {
		fmt.Fprintf(w, " %-22s", p)
	}
	fmt.Fprintln(w)
	var cells []Table3Cell
	for _, g := range o.Graphs {
		for _, frac := range o.LoadFracs {
			setup, err := Prepare(g, o.Scale, frac, o.BatchSize, o.K, o.BatchesPerPoint, o.Problems, o.Seed)
			if err != nil {
				panic(err)
			}
			qs := setup.SampleQueries(o.Queries, o.Seed+uint64(frac*100))
			fmt.Fprintf(w, "%s-%.0f", shortName(g), frac*100)
			for _, p := range o.Problems {
				ms := setup.MeasureQueries(p, qs, o.Repeats)
				agg := AggregateMeasurements(ms)
				cells = append(cells, Table3Cell{Graph: g, Frac: frac, Problem: p, Agg: agg})
				fmt.Fprintf(w, " %-22s", fmt.Sprintf("%.2f [%.2f, %.4f]",
					agg.MeanSpeedup, agg.StdevSpeedup, agg.MeanDeltaSec))
			}
			fmt.Fprintln(w)
		}
	}
	printTable3Averages(w, o, cells)
	return cells
}

func printTable3Averages(w io.Writer, o Options, cells []Table3Cell) {
	fmt.Fprintf(w, "%-8s", "avg.")
	for _, p := range o.Problems {
		var sum float64
		var n int
		for _, c := range cells {
			if c.Problem == p {
				sum += c.Agg.MeanSpeedup
				n++
			}
		}
		if n > 0 {
			fmt.Fprintf(w, " %-22s", fmt.Sprintf("%.2f", sum/float64(n)))
		}
	}
	fmt.Fprintln(w)
}

func shortName(g string) string { return strings.TrimSuffix(g, "-sim") }

// Table4 reproduces the activation-ratio table (R_act, Eq. 11) at the 60%
// load point.
func Table4(o Options) map[string]map[string]Aggregate {
	o = o.withDefaults()
	w := o.Out
	fmt.Fprintln(w, "Table 4: Vertex Activation Ratio of Δ-based over Non-Incremental (60% loaded)")
	fmt.Fprintf(w, "%-8s", "")
	for _, g := range o.Graphs {
		fmt.Fprintf(w, " %-20s", shortName(g)+"-60")
	}
	fmt.Fprintln(w)
	out := map[string]map[string]Aggregate{}
	setups := map[string]*Setup{}
	queries := map[string][]graph.VertexID{}
	for _, g := range o.Graphs {
		s, err := Prepare(g, o.Scale, 0.6, o.BatchSize, o.K, o.BatchesPerPoint, o.Problems, o.Seed)
		if err != nil {
			panic(err)
		}
		setups[g] = s
		queries[g] = s.SampleQueries(o.Queries, o.Seed+60)
	}
	for _, p := range o.Problems {
		fmt.Fprintf(w, "%-8s", p)
		out[p] = map[string]Aggregate{}
		for _, g := range o.Graphs {
			agg := AggregateMeasurements(setups[g].MeasureQueries(p, queries[g], 1))
			out[p][g] = agg
			fmt.Fprintf(w, " %-20s", fmt.Sprintf("%s [%s]",
				fmtRatio(agg.MeanActRatio), fmtRatio(agg.StdActRatio)))
		}
		fmt.Fprintln(w)
	}
	return out
}

// fmtRatio renders an activation ratio the way the paper does: percent
// for ordinary magnitudes, scientific notation for the near-zero ratios
// of the min-max problems.
func fmtRatio(r float64) string {
	if r == 0 {
		return "0"
	}
	if r < 0.0001 {
		return fmt.Sprintf("%.1E", r)
	}
	return fmt.Sprintf("%.1f%%", 100*r)
}

// Table5Row is one K configuration of Table 5.
type Table5Row struct {
	K        int
	Speedup  map[string]float64
	Standing map[string]time.Duration
}

// Table5 reproduces the standing-query-count sweep: user-query speedup
// and standing-query (re-)evaluation time as K varies, on the TW stand-in
// at 60% (the paper's Table 5).
func Table5(o Options, ks []int) []Table5Row {
	o = o.withDefaults()
	if len(ks) == 0 {
		ks = []int{1, 2, 4, 16, 64}
	}
	w := o.Out
	fmt.Fprintln(w, "Table 5: Benefits and Costs of K Standing Queries (TW-sim, 60% loaded)")
	fmt.Fprintf(w, "%-8s", "#SQ")
	for _, k := range ks {
		fmt.Fprintf(w, " %-16s", fmt.Sprintf("K=%d", k))
	}
	fmt.Fprintln(w)
	rows := make([]Table5Row, len(ks))
	gname := "TW-sim"
	for i, k := range ks {
		rows[i] = Table5Row{K: k, Speedup: map[string]float64{}, Standing: map[string]time.Duration{}}
		setup, err := Prepare(gname, o.Scale, 0.6, o.BatchSize, k, 0, o.Problems, o.Seed)
		if err != nil {
			panic(err)
		}
		// One update batch so LastMaintain reflects incremental cost.
		setup.ApplyNextBatch()
		qs := setup.SampleQueries(o.Queries, o.Seed+5)
		for _, p := range o.Problems {
			agg := AggregateMeasurements(setup.MeasureQueries(p, qs, o.Repeats))
			rows[i].Speedup[p] = agg.MeanSpeedup
			d, err := setup.Sys.StandingMaintainTime(p)
			if err != nil {
				panic(err)
			}
			rows[i].Standing[p] = d
		}
	}
	for _, p := range o.Problems {
		fmt.Fprintf(w, "%-8s", p)
		for _, r := range rows {
			fmt.Fprintf(w, " %-16s", fmt.Sprintf("%.2f [%s]", r.Speedup[p], fmtSeconds(r.Standing[p])))
		}
		fmt.Fprintln(w)
	}
	return rows
}

// Autotune runs §5's basic K auto-tuner on the first of o.Graphs and
// o.Problems, preloaded to 60% as in Tables 5–6, for a workload of qpb
// user queries per update batch, and prints the measured cost of each
// candidate K and the chosen one.
func Autotune(o Options, qpb float64) (tuner.Result, error) {
	o = o.withDefaults()
	gname, problem := o.Graphs[0], o.Problems[0]
	cfg, ok := gen.ByName(gname, o.Scale)
	if !ok {
		return tuner.Result{}, fmt.Errorf("bench: unknown graph %q", gname)
	}
	stream := gen.MakeStream(cfg.N(), gen.RMAT(cfg), cfg.Directed, 0.6, o.BatchSize, o.Seed)
	res, err := tuner.TuneK(tuner.Config{
		N: cfg.N(), Directed: cfg.Directed,
		Initial: stream.Initial, Batches: stream.Batches,
		Problem: problem, QueriesPerBatch: qpb, Seed: o.Seed,
	})
	if err != nil {
		return tuner.Result{}, err
	}
	fmt.Fprintf(o.Out, "workload: %s on %s-60, %g user queries per %d-edge batch\n",
		problem, shortName(gname), qpb, o.BatchSize)
	fmt.Fprint(o.Out, res.String())
	return res, nil
}

// Table6 reproduces the update-batch-size sweep: standing query
// evaluation time per batch size (the paper's Table 6 used 1K–500K on
// LJ-60 and FR-60; sizes here scale with the stand-in graphs).
func Table6(o Options, sizes []int) map[string]map[int]map[string]time.Duration {
	o = o.withDefaults()
	if len(sizes) == 0 {
		sizes = []int{1000, 2500, 5000, 10_000, 25_000}
	}
	w := o.Out
	fmt.Fprintln(w, "Table 6: Standing Query Evaluation Time (s) under Different Batch Sizes")
	out := map[string]map[int]map[string]time.Duration{}
	for _, gname := range []string{"LJ-sim", "FR-sim"} {
		out[gname] = map[int]map[string]time.Duration{}
		fmt.Fprintf(w, "%-8s %-8s", "Graph", "Bsize")
		for _, p := range o.Problems {
			fmt.Fprintf(w, " %-8s", p)
		}
		fmt.Fprintln(w)
		for _, bs := range sizes {
			setup, err := Prepare(gname, o.Scale, 0.6, bs, o.K, 0, o.Problems, o.Seed)
			if err != nil {
				panic(err)
			}
			if !setup.ApplyNextBatch() {
				continue
			}
			out[gname][bs] = map[string]time.Duration{}
			fmt.Fprintf(w, "%-8s %-8d", shortName(gname)+"-60", bs)
			for _, p := range o.Problems {
				d, err := setup.Sys.StandingMaintainTime(p)
				if err != nil {
					panic(err)
				}
				out[gname][bs][p] = d
				fmt.Fprintf(w, " %-8s", fmtSeconds(d))
			}
			fmt.Fprintln(w)
		}
	}
	return out
}

// DDResult is one (graph, frac, problem) entry of Tables 7 and 8.
type DDResult struct {
	Graph     string
	Frac      float64
	Problem   string
	PlainSec  float64
	TriSec    float64
	PlainRed  int64
	TriRed    int64
	Speedup   float64
	Reduction float64
}

// Table7and8 reproduces the Differential Dataflow integration experiment:
// DD with shared arrangements (DD-SA) versus DD-SA plus the triangle
// inequality filter (DD-SA-Tri), on BFS/SSSP/SSWP over the LJ and TW
// stand-ins at 60% and 100% load (Table 7: times; Table 8: reduce
// invocations at LJ-100).
func Table7and8(o Options) []DDResult {
	o = o.withDefaults()
	w := o.Out
	problems := []string{"BFS", "SSSP", "SSWP"}
	reg := props.Registry()
	var results []DDResult
	fmt.Fprintln(w, "Table 7: Differential Dataflow with Triangle Inequality Optimization")
	fmt.Fprintf(w, "%-10s %-10s %-28s %-28s %-28s\n", "Graph", "Method", "BFS", "SSSP", "SSWP")
	for _, gname := range []string{"LJ-sim", "TW-sim"} {
		cfg, _ := gen.ByName(gname, o.Scale)
		edges := gen.RMAT(cfg)
		for _, frac := range []float64{0.6, 1.0} {
			stream := gen.MakeStream(cfg.N(), edges, cfg.Directed, frac, o.BatchSize, o.Seed)
			arr := dd.Arrange(cfg.N(), stream.Initial, cfg.Directed)
			csr := graph.FromEdges(cfg.N(), stream.Initial, cfg.Directed)
			// Standing query for the bound: the top-degree root.
			root := standing.TopDegreeRoots(csr, 1)[0]
			qs := gen.SampleSources(csr, o.Queries, o.Seed+uint64(frac*100))
			row := map[string]*DDResult{}
			for _, pname := range problems {
				p := reg[pname]
				fromRoot := oracle.BestPath(csr, p, root)
				var toRoot []uint64
				if cfg.Directed {
					toRoot = oracle.BestPathTo(csr, p, root)
				} else {
					toRoot = fromRoot
				}
				res := &DDResult{Graph: gname, Frac: frac, Problem: pname}
				for _, u := range qs {
					h := arr.Import()
					t0 := time.Now()
					plain := dd.Iterate(h, p, u, nil)
					res.PlainSec += time.Since(t0).Seconds()
					bound := triangle.DeltaInit(p, u, toRoot[u], fromRoot)
					t1 := time.Now()
					tri := dd.Iterate(h, p, u, &dd.TriFilter{P: p, Bound: bound})
					res.TriSec += time.Since(t1).Seconds()
					res.PlainRed += plain.Stats.ReduceOps
					res.TriRed += tri.Stats.ReduceOps
					for v := range plain.Values {
						if plain.Values[v] != tri.Values[v] {
							panic(fmt.Sprintf("bench: DD tri diverged: %s %s u=%d v=%d",
								gname, pname, u, v))
						}
					}
				}
				n := float64(len(qs))
				res.PlainSec /= n
				res.TriSec /= n
				if res.TriSec > 0 {
					res.Speedup = res.PlainSec / res.TriSec
				}
				if res.TriRed > 0 {
					res.Reduction = float64(res.PlainRed) / float64(res.TriRed)
				}
				row[pname] = res
				results = append(results, *res)
			}
			label := fmt.Sprintf("%s-%.0f", shortName(gname), frac*100)
			fmt.Fprintf(w, "%-10s %-10s", label, "DD-SA")
			for _, pn := range problems {
				fmt.Fprintf(w, " %-28s", fmt.Sprintf("%.4fs", row[pn].PlainSec))
			}
			fmt.Fprintln(w)
			fmt.Fprintf(w, "%-10s %-10s", "", "DD-SA-Tri")
			for _, pn := range problems {
				fmt.Fprintf(w, " %-28s", fmt.Sprintf("%.4fs [%.2fx]", row[pn].TriSec, row[pn].Speedup))
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w, "\nTable 8: Reduction of reduce Operations (LJ-sim, 100% loaded)")
	fmt.Fprintf(w, "%-10s %-12s %-12s %-10s\n", "Problem", "DD-SA", "DD-SA-Tri", "Reduction")
	for _, r := range results {
		if r.Graph == "LJ-sim" && r.Frac == 1.0 {
			fmt.Fprintf(w, "%-10s %-12d %-12d %.2fx\n", r.Problem, r.PlainRed, r.TriRed, r.Reduction)
		}
	}
	return results
}

// Figure11 prints the sorted per-query speedup distribution on the LJ
// stand-in at 60% — the series of the paper's Figure 11, one line per
// problem, queries sorted ascending by speedup.
func Figure11(o Options) map[string][]float64 {
	o = o.withDefaults()
	w := o.Out
	setup, err := Prepare("LJ-sim", o.Scale, 0.6, o.BatchSize, o.K, o.BatchesPerPoint, o.Problems, o.Seed)
	if err != nil {
		panic(err)
	}
	qs := setup.SampleQueries(o.Queries, o.Seed+11)
	fmt.Fprintln(w, "Figure 11: Speedup Distributions of User Queries (LJ-sim-60, sorted ascending)")
	out := map[string][]float64{}
	for _, p := range o.Problems {
		queries := qs
		if p == "Radii" && len(queries) > 16 {
			queries = queries[:16] // the paper uses 16 queries for Radii
		}
		sp := SortedSpeedups(setup.MeasureQueries(p, queries, o.Repeats))
		out[p] = sp
		fmt.Fprintf(w, "%-8s", p)
		for _, s := range sp {
			fmt.Fprintf(w, " %.2f", s)
		}
		fmt.Fprintln(w)
	}
	return out
}

// Figure12Bucket is one property(u,r) bucket of Figure 12.
type Figure12Bucket struct {
	PropUR      uint64
	MeanSpeedup float64
	N           int
}

// Figure12 groups user-query speedups by property(u, r) — the standing
// query selection heuristic — reproducing the correlation plots of
// Figure 12. For each problem it prints propUR → mean speedup buckets.
func Figure12(o Options) map[string][]Figure12Bucket {
	o = o.withDefaults()
	w := o.Out
	setup, err := Prepare("LJ-sim", o.Scale, 0.6, o.BatchSize, o.K, o.BatchesPerPoint, o.Problems, o.Seed)
	if err != nil {
		panic(err)
	}
	qs := setup.SampleQueries(o.Queries, o.Seed+12)
	fmt.Fprintln(w, "Figure 12: Speedup vs property(u,r) (LJ-sim-60; bucket=propUR mean±n)")
	out := map[string][]Figure12Bucket{}
	for _, p := range o.Problems {
		ms := setup.MeasureQueries(p, qs, o.Repeats)
		buckets := map[uint64][]float64{}
		for _, m := range ms {
			buckets[bucketKey(p, m.PropUR)] = append(buckets[bucketKey(p, m.PropUR)], m.Speedup)
		}
		keys := make([]uint64, 0, len(buckets))
		for k := range buckets {
			keys = append(keys, k)
		}
		sortUint64(keys)
		fmt.Fprintf(w, "%-8s", p)
		for _, k := range keys {
			var sum float64
			for _, s := range buckets[k] {
				sum += s
			}
			b := Figure12Bucket{PropUR: k, MeanSpeedup: sum / float64(len(buckets[k])), N: len(buckets[k])}
			out[p] = append(out[p], b)
			fmt.Fprintf(w, " (%s→%.2fx n=%d)", propLabel(k), b.MeanSpeedup, b.N)
		}
		fmt.Fprintln(w)
	}
	return out
}

// bucketKey coarsens propUR so buckets have multiple members: wide-range
// problems (Viterbi's weight products) bucket by order of magnitude.
func bucketKey(problem string, propUR uint64) uint64 {
	if propUR == props.Unreached {
		return props.Unreached
	}
	if problem == "Viterbi" {
		k := uint64(1)
		for k < propUR {
			k *= 4
		}
		return k
	}
	return propUR
}

func propLabel(k uint64) string {
	if k == props.Unreached {
		return "∞"
	}
	return fmt.Sprintf("%d", k)
}

func sortUint64(s []uint64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
