package core

import (
	"context"
	"testing"
	"time"

	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/streamgraph"
)

// BenchmarkSubscriptionRefresh times the subscription refresh of an
// insert batch on the benchmark's ingest-churn shape: a directed RMAT
// graph of 2^15 vertices at degree 8, 60 % preloaded, all eight problems
// enabled at K=16, 3,000-edge insert batches and 32 subscriptions from
// vertices of out-degree > 2, rotating over the seven subscribable
// problems, 4 of them SSNSP. One iteration is one batch; run it with a
// fixed count, e.g.
//
//	go test ./internal/core -run '^$' -bench SubscriptionRefresh -benchtime 6x
//
// refresh-ms/batch is the batch's own RefreshElapsed. count-ms/batch is
// the SSNSP lanes' count round (countLanes) run once more off the clock,
// on the same view and lanes, the lanes side by side as the refresh runs
// them. The frames are drained off the clock between batches.
func BenchmarkSubscriptionRefresh(b *testing.B) {
	const batchEdges = 3000
	cfg := gen.Config{LogN: 15, AvgDegree: 8, Directed: true, Seed: 1}
	stream := gen.MakeStream(cfg.N(), gen.RMAT(cfg), true, 0.6, batchEdges, 1)
	if b.N > len(stream.Batches) {
		b.Skipf("stream holds %d batches", len(stream.Batches))
	}
	s := NewSystem(streamgraph.New(cfg.N(), true), 16)
	problems := []string{"SSSP", "SSWP", "Viterbi", "BFS", "SSNP", "SSR", "Radii", "SSNSP"}
	for _, name := range problems {
		if err := s.Enable(name); err != nil {
			b.Fatal(err)
		}
	}
	s.ApplyBatch(stream.Initial)
	deg := make([]int, cfg.N())
	for _, e := range stream.Initial {
		deg[e.Src]++
	}
	var subs []*Subscription
	var counted []*lane
	subscribable := []string{"SSSP", "SSWP", "Viterbi", "BFS", "SSNP", "SSR", "SSNSP"} // not Radii
	for u := 0; len(subs) < 32; u++ {
		if deg[u] <= 2 {
			continue
		}
		sub, err := s.SubscribeCtx(context.Background(), subscribable[len(subs)%len(subscribable)], graph.VertexID(u), 0)
		if err != nil {
			b.Fatal(err)
		}
		if sub.Problem == "SSNSP" {
			counted = append(counted, sub.lane)
		}
		subs = append(subs, sub)
	}
	drain := func() {
		for _, sub := range subs {
			for len(sub.frames) > 0 {
				<-sub.frames
			}
		}
	}
	drain()

	var refresh, count time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := s.ApplyBatch(stream.Batches[i])
		b.StopTimer()
		refresh += rep.RefreshElapsed
		t0 := time.Now()
		countLanes(context.Background(), s.current(), counted)
		count += time.Since(t0)
		drain()
		b.StartTimer()
	}
	n := float64(b.N)
	b.ReportMetric(refresh.Seconds()*1e3/n, "refresh-ms/batch")
	b.ReportMetric(count.Seconds()*1e3/n, "count-ms/batch")
}
