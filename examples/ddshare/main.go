// DD integration: the §6.5 experiment in miniature — the triangle
// inequality optimization dropped into a general-purpose incremental
// dataflow (our mini differential-dataflow substrate) rather than the
// native Tripoline engine.
//
// One shared arrangement indexes the edge stream; multiple query
// dataflows import it (shared arrangements). Each query then runs twice:
// DD-SA (plain) and DD-SA-Tri (with the triangle filter before reduce),
// and the example reports times and reduce-operator invocation counts —
// the Table 7/8 metrics.
//
// Run: go run ./examples/ddshare
package main

import (
	"fmt"
	"time"

	"tripoline/internal/dd"
	"tripoline/internal/engine"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/oracle"
	"tripoline/internal/props"
	"tripoline/internal/standing"
	"tripoline/internal/triangle"
)

func main() {
	cfg := gen.Config{Name: "dd-demo", LogN: 13, AvgDegree: 12, Directed: false, MaxWeight: 32, Seed: 5}
	edges := gen.RMAT(cfg)

	// One arrangement over the input stream, shared by every query.
	arr := dd.Arrange(cfg.N(), edges, false)
	csr := graph.FromEdges(cfg.N(), edges, false)
	fmt.Printf("arranged %d arcs over %d vertices; importers share one index\n",
		arr.NumEdges(), arr.NumVertices())

	// A standing query at the top-degree vertex supplies the Δ bounds.
	root := standing.TopDegreeRoots(csr, 1)[0]

	for _, p := range []engine.Problem{props.BFS{}, props.SSSP{}, props.SSWP{}} {
		fromRoot := oracle.BestPath(csr, p, root)
		const user = 777
		bound := triangle.DeltaInit(p, user, fromRoot[user], fromRoot)

		h := arr.Import()
		t0 := time.Now()
		plain := dd.Iterate(h, p, user, nil)
		plainT := time.Since(t0)

		t1 := time.Now()
		tri := dd.Iterate(h, p, user, &dd.TriFilter{P: p, Bound: bound})
		triT := time.Since(t1)

		// Same fixpoint, by construction.
		for v := range plain.Values {
			if plain.Values[v] != tri.Values[v] {
				panic("tri-filtered dataflow diverged")
			}
		}
		fmt.Printf("%-8s DD-SA %8v (%7d reduces)  DD-SA-Tri %8v (%7d reduces, %d filtered)\n",
			p.Name(), plainT.Round(time.Microsecond), plain.Stats.ReduceOps,
			triT.Round(time.Microsecond), tri.Stats.ReduceOps, tri.Stats.Filtered)
	}
	fmt.Printf("arrangement now has %d importers — one indexed graph, many dataflows\n",
		arr.Importers())
}
