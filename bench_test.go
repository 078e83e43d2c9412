// Package tripoline's bench suite regenerates every table and figure of
// the paper's evaluation (one testing.B benchmark each), at sizes that
// finish in minutes. The reported metric of each benchmark is the wall
// time of regenerating the artifact; the artifact itself (speedups,
// activation ratios, reduce counts) is emitted through b.Log and, in full
// detail, by cmd/tripoline-bench.
//
// Run everything:  go test -bench=. -benchmem
// Paper-scale:     go run ./cmd/tripoline-bench -all -queries 256 -repeats 3
package tripoline

import (
	"context"
	"fmt"
	"io"
	"os"
	"testing"

	"tripoline/internal/bench"
)

// benchOpts returns harness options sized for `go test -bench`.
func benchOpts(out io.Writer) bench.Options {
	return bench.Options{
		Queries:   12,
		Repeats:   1,
		K:         16,
		BatchSize: 10_000,
		Out:       out,
	}
}

// out returns the table destination: stdout when -v style detail is
// wanted (TRIPOLINE_BENCH_VERBOSE=1), discard otherwise.
func out() io.Writer {
	if os.Getenv("TRIPOLINE_BENCH_VERBOSE") != "" {
		return os.Stdout
	}
	return io.Discard
}

// BenchmarkTable2GraphStats regenerates the input-graph statistics table.
func BenchmarkTable2GraphStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stats := bench.Table2(out(), 1)
		if i == 0 {
			for _, s := range stats {
				b.Log(s.String())
			}
		}
	}
}

// BenchmarkTable3Speedups regenerates the headline speedup table
// (Δ-based vs non-incremental, all eight problems). One load point and a
// reduced query sample keep it minutes-scale; shapes match Table 3.
func BenchmarkTable3Speedups(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOpts(out())
		o.LoadFracs = []float64{0.6}
		cells := bench.Table3(o)
		if i == 0 {
			for _, c := range cells {
				b.Logf("%s-%.0f %-8s speedup=%.2f [σ=%.2f, Δt=%.4fs]",
					c.Graph, c.Frac*100, c.Problem,
					c.Agg.MeanSpeedup, c.Agg.StdevSpeedup, c.Agg.MeanDeltaSec)
			}
		}
	}
}

// BenchmarkTable4ActivationRatio regenerates the R_act table at 60% load.
func BenchmarkTable4ActivationRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOpts(out())
		res := bench.Table4(o)
		if i == 0 {
			for p, per := range res {
				for g, agg := range per {
					b.Logf("%-8s %-8s R_act=%.3g [σ=%.3g]", p, g, agg.MeanActRatio, agg.StdActRatio)
				}
			}
		}
	}
}

// BenchmarkTable5KSweep regenerates the standing-query-count sweep
// (K = 1, 2, 4, …, 64 on the TW stand-in at 60%) and its K picks.
func BenchmarkTable5KSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOpts(out())
		o.Queries = 8
		res, err := bench.Table5(o, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range res.Rows {
				b.Logf("K=%-3d SSSP=%.2fx[%.3fs] SSWP=%.2fx[%.3fs] BFS=%.2fx[%.3fs]",
					r.K, r.Speedup["SSSP"], r.Standing["SSSP"].Seconds(),
					r.Speedup["SSWP"], r.Standing["SSWP"].Seconds(),
					r.Speedup["BFS"], r.Standing["BFS"].Seconds())
			}
			b.Logf("picks at 1, 4, 16, 64 queries per batch: SSSP %v, BFS %v", res.Picks["SSSP"], res.Picks["BFS"])
		}
	}
}

// BenchmarkTable6BatchSize regenerates the update-batch-size sweep
// (standing-query maintenance time vs batch size, LJ/FR stand-ins at 60%).
func BenchmarkTable6BatchSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOpts(out())
		res := bench.Table6(o, []int{1000, 2500, 5000, 10_000, 25_000})
		if i == 0 {
			for g, per := range res {
				for bs, times := range per {
					line := fmt.Sprintf("%s bsize=%-6d", g, bs)
					for p, d := range times {
						line += fmt.Sprintf(" %s=%.3fs", p, d.Seconds())
					}
					b.Log(line)
				}
			}
		}
	}
}

// BenchmarkTable7DD regenerates the Differential Dataflow comparison
// (DD-SA vs DD-SA-Tri times on BFS/SSSP/SSWP).
func BenchmarkTable7DD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOpts(out())
		o.Queries = 6
		results := bench.Table7and8(o)
		if i == 0 {
			for _, r := range results {
				b.Logf("%s-%.0f %-5s DD-SA=%.4fs DD-SA-Tri=%.4fs [%.2fx]",
					r.Graph, r.Frac*100, r.Problem, r.PlainSec, r.TriSec, r.Speedup)
			}
		}
	}
}

// BenchmarkTable8DDReduce regenerates the reduce-invocation counts of the
// DD integration (LJ stand-in at 100%).
func BenchmarkTable8DDReduce(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOpts(out())
		o.Queries = 6
		results := bench.Table7and8(o)
		if i == 0 {
			for _, r := range results {
				if r.Graph == "LJ-sim" && r.Frac == 1.0 {
					b.Logf("%-5s reduce: DD-SA=%d DD-SA-Tri=%d [%.2fx]",
						r.Problem, r.PlainRed, r.TriRed, r.Reduction)
				}
			}
		}
	}
}

// BenchmarkFigure11Distribution regenerates the sorted per-query speedup
// distributions on the LJ stand-in at 60%.
func BenchmarkFigure11Distribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOpts(out())
		series := bench.Figure11(o)
		if i == 0 {
			for p, sp := range series {
				if len(sp) > 0 {
					b.Logf("%-8s min=%.2fx median=%.2fx max=%.2fx",
						p, sp[0], sp[len(sp)/2], sp[len(sp)-1])
				}
			}
		}
	}
}

// BenchmarkFigure12Correlation regenerates the speedup-vs-property(u,r)
// correlation buckets.
func BenchmarkFigure12Correlation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOpts(out())
		buckets := bench.Figure12(o)
		if i == 0 {
			for p, bs := range buckets {
				b.Logf("%-8s %d propUR buckets", p, len(bs))
			}
		}
	}
}

// BenchmarkBatchedUserQueries compares answering 16 same-problem user
// queries one at a time against one 16-wide batched Δ-based evaluation
// (core.System.QueryMany) — the §4.5 batch mode applied to user queries.
func BenchmarkBatchedUserQueries(b *testing.B) {
	setup, err := bench.Prepare("TW-sim", 1, 0.6, 10_000, 16, 0, []string{"SSSP"}, 5)
	if err != nil {
		b.Fatal(err)
	}
	qs := setup.SampleQueries(16, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := setup.Sys.QueryManyCtx(context.Background(), "SSSP", qs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if b.N > 0 {
		multi, _ := setup.Sys.QueryManyCtx(context.Background(), "SSSP", qs)
		var singles int64
		for _, u := range qs {
			r, _ := setup.Sys.Query("SSSP", u)
			singles += r.Stats.Relaxations
		}
		b.Logf("batched relaxations=%d vs %d summed singles", multi.Stats.Relaxations, singles)
	}
}
