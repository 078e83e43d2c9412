package bench

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"tripoline/internal/dd"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/oracle"
	"tripoline/internal/props"
	"tripoline/internal/standing"
	"tripoline/internal/triangle"
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

// Table5Row is one K configuration of Table 5, per problem: the mean
// speedup, the wall time and counted work of the bounding standing set's
// maintenance of one batch, and the mean counted work of a Δ-query.
type Table5Row struct {
	K        int
	Speedup  map[string]float64
	Standing map[string]time.Duration
	// StandingWork is the set's relaxations for the batch; QueryWork a
	// Δ-query's relaxations plus the words its meet read (lanes met × N).
	StandingWork map[string]int64
	QueryWork    map[string]float64
	// Sources is the sample the row's queries ran from: every row's is
	// the same, so the rows differ by K alone.
	Sources []graph.VertexID
}

// Table5Result is Table 5's sweep and, per problem, the K pickK picks
// at each of pickRates.
type Table5Result struct {
	Rows  []Table5Row
	Picks map[string][]int
}

// pickRates are the query rates, Δ-queries per update batch, at which
// Table 5 prints its pick.
var pickRates = []float64{1, 4, 16, 64}

// maintainRelaxCost is the time of one fused width-K maintenance
// relaxation, one (arc, slot) pair, in width-1 query relaxations:
// BenchmarkUpdateSplit's SSSP/2^17x16 fwd-ns/relax, 11.1 (median of eight
// runs of six batches), over BenchmarkDeltaRun's ns/relax on the same
// shape, 5.4 (median of nine runs of 50 queries), on a 2-CPU Xeon.
const maintainRelaxCost = 2.0

// pickK is §5's auto-tuner over Table 5's rows: the K whose batch cycle,
// maintenance plus rate Δ-queries (§4.5's trade-off), costs the least
// counted work for problem, ties going to the earlier row. It prices
// counts, not times, so the same rows and rate give the same K.
func pickK(rows []Table5Row, problem string, rate float64) int {
	best, bestCost := 0, math.Inf(1)
	for _, r := range rows {
		cost := maintainRelaxCost*float64(r.StandingWork[problem]) + rate*r.QueryWork[problem]
		if cost < bestCost {
			best, bestCost = r.K, cost
		}
	}
	return best
}

// Table5 reproduces the standing-query-count sweep: user-query speedup
// and standing-query (re-)evaluation time as K varies (the paper's Table
// 5), on the first of o.Graphs when given (the TW stand-in otherwise) at
// 60%, with every K measured on one sample of sources. It also prints
// each K's counted work and the K pickK picks at each of pickRates.
func Table5(o Options, ks []int) (Table5Result, error) {
	gname := "TW-sim"
	if len(o.Graphs) > 0 {
		gname = o.Graphs[0]
	}
	o = o.withDefaults()
	if len(ks) == 0 {
		ks = []int{1, 2, 4, 8, 16, 32, 64}
	}
	var res Table5Result
	var qs []graph.VertexID
	for _, k := range ks {
		setup, err := Prepare(gname, o.Scale, 0.6, o.BatchSize, k, 0, o.Problems, o.Seed)
		if err != nil {
			return Table5Result{}, err
		}
		// One update batch so the set's last maintenance is incremental.
		setup.ApplyNextBatch()
		if qs == nil {
			qs = setup.SampleQueries(o.Queries, o.Seed+5)
		}
		row := Table5Row{K: k, Speedup: map[string]float64{}, Standing: map[string]time.Duration{},
			StandingWork: map[string]int64{}, QueryWork: map[string]float64{}, Sources: qs}
		for _, p := range o.Problems {
			agg := AggregateMeasurements(setup.MeasureQueries(p, qs, o.Repeats))
			d, work, err := setup.Sys.StandingMaintainTime(p)
			if err != nil {
				return Table5Result{}, err
			}
			row.Speedup[p], row.QueryWork[p] = agg.MeanSpeedup, agg.MeanWork
			row.Standing[p], row.StandingWork[p] = d, work.Relaxations
		}
		res.Rows = append(res.Rows, row)
	}
	res.Picks = map[string][]int{}
	for _, p := range o.Problems {
		for _, rate := range pickRates {
			res.Picks[p] = append(res.Picks[p], pickK(res.Rows, p, rate))
		}
	}
	printTable5(o, gname, res)
	return res, nil
}

func printTable5(o Options, gname string, res Table5Result) {
	w := o.Out
	cells := func(title string, cell func(Table5Row, string) string) {
		fmt.Fprintln(w, title)
		fmt.Fprintf(w, "%-8s", "#SQ")
		for _, r := range res.Rows {
			fmt.Fprintf(w, " %-16s", fmt.Sprintf("K=%d", r.K))
		}
		fmt.Fprintln(w)
		for _, p := range o.Problems {
			fmt.Fprintf(w, "%-8s", p)
			for _, r := range res.Rows {
				fmt.Fprintf(w, " %-16s", cell(r, p))
			}
			fmt.Fprintln(w)
		}
	}
	cells(fmt.Sprintf("Table 5: Benefits and Costs of K Standing Queries (%s, 60%% loaded)", gname),
		func(r Table5Row, p string) string {
			return fmt.Sprintf("%.2f [%s]", r.Speedup[p], fmtSeconds(r.Standing[p]))
		})
	cells("Counted work: standing relaxations per batch / mean Δ-query relaxations + meet reads",
		func(r Table5Row, p string) string { return fmt.Sprintf("%d/%.0f", r.StandingWork[p], r.QueryWork[p]) })
	fmt.Fprintf(w, "K picked by %.1f × standing + rate × query work at rate = %v Δ-queries per batch\n",
		maintainRelaxCost, pickRates)
	for _, p := range o.Problems {
		fmt.Fprintf(w, "%-8s %v\n", p, res.Picks[p])
	}
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
				d, _, err := setup.Sys.StandingMaintainTime(p)
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
