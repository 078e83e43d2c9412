package core

import (
	"context"
	"slices"
	"testing"

	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/props"
	"tripoline/internal/streamgraph"
)

// TestCountLanesMatchesPerLane holds the count round, which gathers every
// counted lane of a page in one pass, to counting each lane from its own
// column copy. Twelve SSNSP lanes span two slot blocks of one page, so
// lanes are gathered side by side within a block and across blocks; a
// second subscriber of the first source shares its lane.
func TestCountLanesMatchesPerLane(t *testing.T) {
	cfg := gen.Config{LogN: 10, AvgDegree: 8, Directed: true, Seed: 5}
	stream := gen.MakeStream(cfg.N(), gen.RMAT(cfg), true, 0.7, 500, 1)
	s := NewSystem(streamgraph.New(cfg.N(), true), 4)
	if err := s.Enable("SSNSP"); err != nil {
		t.Fatal(err)
	}
	s.ApplyBatch(stream.Initial)
	ctx := context.Background()
	var counted []*lane
	for u := 0; len(counted) < 12; u += 7 {
		sub, err := s.SubscribeCtx(ctx, "SSNSP", graph.VertexID(u), 0)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Unsubscribe(sub)
		if !slices.Contains(counted, sub.lane) {
			counted = append(counted, sub.lane)
		}
	}
	twin, err := s.SubscribeCtx(ctx, "SSNSP", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Unsubscribe(twin)
	if twin.lane != counted[0] {
		t.Fatal("a second subscriber of a source got a lane of its own")
	}
	for _, batch := range stream.Batches[:2] {
		s.ApplyBatch(batch)
		view := s.current()
		got := countLanes(ctx, view, counted)
		for i, l := range counted {
			want, _, err := props.CountShortestPaths(ctx, view, l.source, l.set.LaneColumns([]int{l.id})[0])
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got[i], want) {
				t.Fatalf("lane %d (source %d): gathered counts differ from the per-lane count", l.id, l.source)
			}
		}
	}
}
