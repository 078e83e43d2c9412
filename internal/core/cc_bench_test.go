package core_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"tripoline/internal/core"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/streamgraph"
)

// BenchmarkCC prices connected components on a System — the traffic no
// benchmark/ workload enables: a from-scratch evaluation on the
// query path, the re-evaluation the apply path runs after a deletion batch,
// and the resume after a 1k-edge insert batch. The apply rows report the
// System's own CC pass (StandingMaintainTime) as cc-ms/op next to the whole
// mutation's ns/op; the inverse mutation between iterations is not timed.
func BenchmarkCC(b *testing.B) {
	for _, directed := range []bool{true, false} {
		cfg := gen.Config{Name: "bench", LogN: 15, AvgDegree: 16, Directed: directed, Seed: 11}
		edges := gen.RMAT(cfg)
		cut := len(edges) - 1000
		build := func(b *testing.B, preload []graph.Edge) *core.System {
			r := core.NewSystem(streamgraph.New(cfg.N(), directed), 16)
			if err := r.Enable("CC"); err != nil {
				b.Fatal(err)
			}
			r.ApplyBatch(preload)
			b.ResetTimer()
			return r
		}
		// mutate times do, reports the CC pass it triggered, and undoes it.
		mutate := func(b *testing.B, r *core.System, do, undo func([]graph.Edge) core.BatchReport) {
			var cc time.Duration
			for i := 0; i < b.N; i++ {
				do(edges[cut:])
				d, _ := r.StandingMaintainTime("CC")
				cc += d
				b.StopTimer()
				undo(edges[cut:])
				b.StartTimer()
			}
			b.ReportMetric(float64(cc)/float64(time.Millisecond)/float64(b.N), "cc-ms/op")
		}
		name := fmt.Sprintf("/directed=%v", directed)
		b.Run("query-full"+name, func(b *testing.B) {
			r := build(b, edges[:cut])
			for i := 0; i < b.N; i++ {
				if _, err := r.QueryFullCtx(context.Background(), "CC", 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("apply-deletion"+name, func(b *testing.B) {
			r := build(b, edges)
			mutate(b, r, r.ApplyDeletions, r.ApplyBatch)
		})
		b.Run("apply-insert-1k"+name, func(b *testing.B) {
			r := build(b, edges[:cut])
			mutate(b, r, r.ApplyBatch, r.ApplyDeletions)
		})
	}
}
