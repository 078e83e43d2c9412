package loadgen

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"tripoline/internal/core"
	"tripoline/internal/gen"
	"tripoline/internal/server"
)

// SelfHostConfig shapes an in-process server: the same construction
// path cmd/tripoline-server uses, over a loopback listener. The sweep
// and conformance suites need to own the server (to vary -max-inflight
// per point, to drain on cue, to compare S=1 against S=4); the CLI uses
// it when no -target is given.
type SelfHostConfig struct {
	Vertices  int    // graph size; default 2048
	Edges     int    // seed edge count; default 8·Vertices
	MaxWeight uint32 // uniform weight range; default 8
	Directed  bool
	Problems  []string // default SSWP, SSSP, BFS
	K         int      // upper bound on standing queries per set (narrowed by the meet); default 16
	Shards    int      // stores the graph is split across; default 1
	Seed      uint64

	MaxInFlight  int // 0 = unbounded admission
	QueueDepth   int
	QueryTimeout time.Duration
	WriteTimeout time.Duration

	HistoryCapacity int // retained snapshots; 0 disables /v1/queryat
	CacheEntries    int // Δ-result cache; 0 disables
	SubBuffer       int // per-subscription frame buffer; 0 = core default
}

func (c SelfHostConfig) withDefaults() SelfHostConfig {
	if c.Vertices <= 0 {
		c.Vertices = 2048
	}
	if c.Edges <= 0 {
		c.Edges = 8 * c.Vertices
	}
	if c.MaxWeight == 0 {
		c.MaxWeight = 8
	}
	if len(c.Problems) == 0 {
		c.Problems = []string{"SSWP", "SSSP", "BFS"}
	}
	if c.K <= 0 {
		c.K = 16
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// Target is one self-hosted server: URL for the driver, handles for
// drain and teardown.
type Target struct {
	URL    string
	Shards int
	srv    *server.Server
	ts     *httptest.Server
}

// Drain flips the server into drain mode and waits for in-flight work.
func (t *Target) Drain(ctx context.Context) error { return t.srv.Drain(ctx) }

// Server exposes the underlying HTTP front end (the conformance 429
// probe needs its admission internals via the test hook).
func (t *Target) Server() *server.Server { return t.srv }

// Close tears the listener down.
func (t *Target) Close() { t.ts.Close() }

// SelfHost builds and starts an in-process server per cfg.
func SelfHost(cfg SelfHostConfig) (*Target, error) {
	cfg = cfg.withDefaults()
	edges := gen.Uniform(cfg.Vertices, cfg.Edges, cfg.MaxWeight, cfg.Seed)
	opts := []server.Option{
		server.WithQueryTimeout(cfg.QueryTimeout),
		server.WithWriteTimeout(cfg.WriteTimeout),
		server.WithMaxInFlight(cfg.MaxInFlight, cfg.QueueDepth),
		server.WithSubscriptionBuffer(cfg.SubBuffer),
	}
	sys := core.NewSharded(cfg.Vertices, cfg.Directed, cfg.Shards, cfg.K)
	sys.ApplyBatch(edges)
	for _, p := range cfg.Problems {
		if err := sys.Enable(p); err != nil {
			return nil, fmt.Errorf("loadgen: selfhost: %w", err)
		}
	}
	if cfg.HistoryCapacity > 0 {
		sys.EnableHistory(cfg.HistoryCapacity)
	}
	if cfg.CacheEntries > 0 {
		sys.EnableResultCache(cfg.CacheEntries)
	}
	srv := server.New(sys, opts...)
	ts := httptest.NewServer(srv)
	return &Target{URL: ts.URL, Shards: cfg.Shards, srv: srv, ts: ts}, nil
}
