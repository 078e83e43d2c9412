// Command tripoline-bench regenerates the tables and figures of the
// Tripoline paper's evaluation (§6) on the synthetic stand-in graphs.
//
// Usage:
//
//	tripoline-bench -table 3                 # one table
//	tripoline-bench -figure 11               # one figure
//	tripoline-bench -all                     # the whole evaluation
//	tripoline-bench -all -queries 256 -repeats 3 -scale 2   # closer to paper scale
//	tripoline-bench -table 5 -graphs LJ-sim -problems SSSP  # K sweep and §5's K pick
//
// Table 5 is also §5's K auto-tuner: beside each K's speedup and standing
// time it prints the counted work of maintenance and of a Δ-query, and the
// K that minimizes a batch cycle's work at 1, 4, 16 and 64 Δ-queries per
// batch. It sweeps the first -graphs entry (TW-sim when -graphs is not
// given).
//
// Every experiment is deterministic in -seed. Expect minutes at default
// sizes and hours at paper-methodology sizes.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"tripoline/internal/bench"
)

func main() {
	var (
		table    = flag.Int("table", 0, "regenerate one table (1-8)")
		figure   = flag.Int("figure", 0, "regenerate one figure (11 or 12)")
		all      = flag.Bool("all", false, "regenerate every table and figure")
		scale    = flag.Int("scale", 1, "graph scale factor (1 = laptop scale; each +1 doubles vertices)")
		queries  = flag.Int("queries", 24, "user queries per configuration (paper: 256)")
		repeats  = flag.Int("repeats", 1, "evaluations averaged per query (paper: 3)")
		k        = flag.Int("k", 16, "upper bound on standing queries per standing set (each set narrows to the roots its Δ-init meet uses)")
		bsize    = flag.Int("batch", 10000, "update batch size")
		batches  = flag.Int("batches", 1, "update batches applied per load point (paper: 5)")
		probs    = flag.String("problems", "", "comma-separated problem subset (default: all eight)")
		graphs   = flag.String("graphs", "", "comma-separated graph subset (default: all four)")
		seed     = flag.Uint64("seed", 0x7121, "experiment seed")
		jsonPath = flag.String("json", "", "also write machine-readable results to this file")
		verify   = flag.Bool("verify", false, "run the cross-validation self-check instead of benchmarks")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	)
	flag.Parse()

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if *verify {
		if bench.Verify(os.Stdout, *scale, max(4, *queries/4), *seed) != 0 {
			os.Exit(1)
		}
		return
	}

	o := bench.Options{
		Scale:           *scale,
		Queries:         *queries,
		Repeats:         *repeats,
		K:               *k,
		BatchSize:       *bsize,
		BatchesPerPoint: *batches,
		Seed:            *seed,
		Out:             os.Stdout,
	}
	if *probs != "" {
		o.Problems = strings.Split(*probs, ",")
	}
	if *graphs != "" {
		o.Graphs = strings.Split(*graphs, ",")
	}

	report := bench.NewReport(o, time.Now())

	run := func(name string, f func()) {
		start := time.Now()
		f()
		fmt.Printf("[%s done in %s]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	selected := false
	want := func(t int) bool {
		return *all || *table == t
	}
	wantFig := func(f int) bool {
		return *all || *figure == f
	}
	if want(1) {
		selected = true
		run("table 1", func() { bench.Table1(os.Stdout) })
	}
	if want(2) {
		selected = true
		run("table 2", func() { bench.Table2(os.Stdout, o.Scale) })
	}
	if want(3) {
		selected = true
		run("table 3", func() { report.AddTable3(bench.Table3(o)) })
	}
	if want(4) {
		selected = true
		run("table 4", func() { report.AddTable4(bench.Table4(o)) })
	}
	if want(5) {
		selected = true
		run("table 5", func() {
			res, err := bench.Table5(o, nil)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tripoline-bench:", err)
				os.Exit(1)
			}
			report.AddTable5(res)
		})
	}
	if want(6) {
		selected = true
		run("table 6", func() { bench.Table6(o, nil) })
	}
	if want(7) || want(8) {
		selected = true
		run("tables 7+8", func() { report.DD = bench.Table7and8(o) })
	}
	if wantFig(11) {
		selected = true
		run("figure 11", func() { report.Fig11 = bench.Figure11(o) })
	}
	if wantFig(12) {
		selected = true
		run("figure 12", func() { report.Fig12 = bench.Figure12(o) })
	}
	if !selected {
		fmt.Fprintln(os.Stderr, "nothing selected: pass -all, -table N, -figure N, or -verify")
		flag.Usage()
		os.Exit(2)
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tripoline-bench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := report.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, "tripoline-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}
