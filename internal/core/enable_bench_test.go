package core

import (
	"runtime"
	"testing"
	"time"

	"tripoline/internal/gen"
	"tripoline/internal/streamgraph"
)

// BenchmarkEnable times Enable — the standing set's root rule
// (standing.Rooted: rank, evaluate, narrow) — on two of the benchmark's
// shapes, each a directed RMAT graph 60 % preloaded with K=16: the
// query-minmax shape (2^18 vertices at degree 4; SSWP, then SSNP), whose
// meets keep one root or few, and the query-additive shape (2^17 at
// degree 16; SSSP, then BFS), whose sets stay 16 wide. One iteration
// enables both problems on a fresh System over a freshly loaded graph,
// built off the clock, the last iteration's garbage collected. It reports
// each problem's <name>-ms/enable and the width its set kept,
// <name>-kept. Run it with a fixed count, e.g.
//
//	go test ./internal/core -run '^$' -bench Enable -benchtime 5x
func BenchmarkEnable(b *testing.B) {
	for _, c := range []struct {
		name         string
		logN, degree int
		problems     []string
	}{
		{"query-minmax", 18, 4, []string{"SSWP", "SSNP"}},
		{"query-additive", 17, 16, []string{"SSSP", "BFS"}},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := gen.Config{LogN: c.logN, AvgDegree: float64(c.degree), Directed: true, Seed: 1}
			stream := gen.MakeStream(cfg.N(), gen.RMAT(cfg), true, 0.6, 10_000, 1)
			took := make([]time.Duration, len(c.problems))
			kept := make([]int, len(c.problems))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := streamgraph.New(cfg.N(), true)
				g.InsertEdges(stream.Initial)
				s := NewSystem(g, 16)
				runtime.GC() // the last iteration's sets
				b.StartTimer()
				for j, name := range c.problems {
					t0 := time.Now()
					if err := s.Enable(name); err != nil {
						b.Fatal(err)
					}
					took[j] += time.Since(t0)
				}
				b.StopTimer()
				for j := range c.problems {
					kept[j] = s.ev.sets[j].K()
				}
				b.StartTimer()
			}
			for j, name := range c.problems {
				b.ReportMetric(took[j].Seconds()*1e3/float64(b.N), name+"-ms/enable")
				b.ReportMetric(float64(kept[j]), name+"-kept")
			}
		})
	}
}
