// Command benchmark is the repository's performance instrument: it runs
// one named fixed-work workload for one seed against the Tripoline
// stack, checks every answer, and prints every metric by name with its
// unit. See README.md in this directory for the protocol.
//
//	benchmark -workload query-additive -seed 1 -seconds 20 -trace 0
//	benchmark -workload serve-sharded -seed 1 -seconds 20 -trace 1
//	benchmark -selfcheck 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: query-additive, query-minmax, ingest-churn, serve-sharded")
		seed      = flag.Uint64("seed", 1, "seed every input of the run is derived from")
		seconds   = flag.Int("seconds", nominalSeconds, "measured length the fixed work is sized for (per-round counts scale with it, never below the sample floors)")
		trace     = flag.Int("trace", 0, "1 = traced run: layer probes, per-layer metrics, trace-<workload>.json")
		selfcheck = flag.Int("selfcheck", 0, "run every workload N times (seeds 1..N) and check the spread of every end-to-end metric against BENCHMARK.json")
		outDir    = flag.String("out", filepath.Join("benchmark", "out"), "directory for trace files")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(2, "unexpected argument %q", flag.Arg(0))
	}
	if *selfcheck > 0 {
		if err := selfCheck(*selfcheck, *seconds, os.Stdout); err != nil {
			fatal(1, "%v", err)
		}
		return
	}
	w, err := workloadByName(*name)
	if err != nil {
		fatal(2, "%v (see -help)", err)
	}
	if *seconds < 1 {
		fatal(2, "-seconds must be at least 1")
	}
	res, err := runWorkload(w.scaled(*seconds), *seed, *trace != 0, *outDir)
	if err != nil {
		fatal(1, "%s: %v", w.name, err)
	}
	report(os.Stdout, res)
	if !res.correct || res.failed > 0 {
		os.Exit(1)
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

// metricJSON and resultJSON are the contract's result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// report prints the human-readable table and, as the last line, the
// result object: the end-to-end metrics of an untraced run, the
// per-layer metrics of a traced one.
func report(out io.Writer, res *result) {
	w := res.workload
	fmt.Fprintf(out, "workload %s seed %d script %016x gomaxprocs %d gcpercent %d\n",
		w.name, res.seed, res.scriptHash, pinnedProcs, pinnedGC)
	fmt.Fprintf(out, "graph RMAT 2^%d x %g directed, 60%% preloaded; problems %v, queried %v; K=%d\n", w.logN, w.degree, w.problems, w.queryProblems(), standingK)
	c := res.opCounts
	fmt.Fprintf(out, "rounds half a round of warm-up + %d measured, each: %d delta %d full %d repeat %d insert x %d edges %d delete x %d edges\n",
		res.measured, c[opDelta], c[opFull], c[opRepeat], c[opInsert], w.batchEdges, c[opDelete], w.deleteEdges)
	fmt.Fprintf(out, "ops attempted %d failed %d answers correct %v\n", res.attempted, res.failed, res.correct)
	fmt.Fprintf(out, "machine speed %.4f of the reference machine (reference sweep %.4f ms here, %.4g ms there): times x speed, rates / speed\n",
		res.speed, res.sweepMs, refNominalMs)

	line := resultJSON{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: make(map[string]metricJSON)}
	fmt.Fprintf(out, "%-34s %14s %-8s %14s %-12s %s\n", "end-to-end metric", "value", "unit", "as measured", "round spread", "per round, as measured")
	for _, m := range e2eMetrics {
		r := res.e2e[m.name]
		fmt.Fprintf(out, "%-34s %14.4f %-8s %14.4f %-12.3f %.4g\n", m.name, r.value, m.unit, r.measured, r.spread, r.rounds)
		if res.layers == nil {
			line.Metrics[m.name] = metricJSON{Value: r.value, Unit: m.unit}
		}
	}
	if res.layers != nil {
		fmt.Fprintf(out, "(traced run: the end-to-end values above include probe interference and are not the reported ones)\n")
		fmt.Fprintf(out, "%-34s %14s %-8s %s\n", "per-layer metric", "value", "unit", "should move")
		for _, m := range layerCatalog {
			fmt.Fprintf(out, "%-34s %14.4f %-8s %s\n", m.name, res.layers[m.name], m.unit, m.moves)
			line.Metrics[m.name] = metricJSON{Value: res.layers[m.name], Unit: m.unit}
		}
		fmt.Fprintf(out, "trace written to %s\n", res.tracePath)
	}
	enc, err := json.Marshal(line)
	if err != nil {
		fatal(1, "encode result: %v", err)
	}
	fmt.Fprintf(out, "%s\n", enc)
}
