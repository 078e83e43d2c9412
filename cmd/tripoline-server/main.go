// Command tripoline-server runs a Tripoline system as an HTTP query
// service: it loads or generates a graph, enables a set of problems, and
// serves the JSON API of internal/server.
//
// Usage:
//
//	tripoline-server -graph TW-sim -problems SSWP,SSSP -addr :8080
//	tripoline-server -file my.wel -directed -problems BFS
//
// Then:
//
//	curl 'localhost:8080/v1/stats'
//	curl 'localhost:8080/v1/query?problem=SSWP&source=42'
//	curl 'localhost:8080/v1/query?problem=SSWP&source=42&stale=ok'
//	curl -N 'localhost:8080/v1/subscribe?problem=SSWP&src=42'
//	curl -X POST localhost:8080/v1/batch -d '{"edges":[{"src":1,"dst":2,"w":3}]}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tripoline/internal/core"
	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/server"
	"tripoline/internal/streamgraph"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		gname    = flag.String("graph", "LJ-sim", "synthetic graph name")
		file     = flag.String("file", "", "weighted edge list to load instead of generating")
		directed = flag.Bool("directed", false, "treat -file graph as directed")
		scale    = flag.Int("scale", 1, "graph scale factor")
		probs    = flag.String("problems", "SSWP,SSSP,BFS", "problems to enable")
		k        = flag.Int("k", 16, "upper bound on standing queries per standing set (each set narrows to the roots its Δ-init meet uses)")
		seed     = flag.Uint64("seed", 42, "seed for synthetic graphs")

		queryTimeout = flag.Duration("query-timeout", 30*time.Second, "per-query deadline (0 disables)")
		writeTimeout = flag.Duration("write-timeout", 2*time.Minute, "per-batch admission deadline (0 disables)")
		maxInFlight  = flag.Int("max-inflight", 0, "max concurrent evaluations (0 = unbounded)")
		queueDepth   = flag.Int("queue-depth", 64, "admission wait-queue depth once -max-inflight is reached")
		drainWait    = flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight queries at shutdown")
		resultCache  = flag.Int("result-cache", core.DefaultCacheEntries, "Delta-result cache capacity in entries (0 disables caching)")
		subBuffer    = flag.Int("sub-buffer", core.DefaultSubscriptionBuffer, "per-subscriber frame buffer for /v1/subscribe")
	)
	flag.Parse()

	var (
		edges         []graph.Edge
		n             int
		directedGraph bool
	)
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			log.Fatal(err)
		}
		edges, n, err = gen.ReadWEL(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		directedGraph = *directed
	} else {
		cfg, ok := gen.ByName(*gname, *scale)
		if !ok {
			log.Fatalf("unknown graph %q", *gname)
		}
		cfg.Seed = *seed
		edges, n, directedGraph = gen.RMAT(cfg), cfg.N(), cfg.Directed
	}

	serverOpts := []server.Option{
		server.WithQueryTimeout(*queryTimeout),
		server.WithWriteTimeout(*writeTimeout),
		server.WithMaxInFlight(*maxInFlight, *queueDepth),
		server.WithSubscriptionBuffer(*subBuffer),
	}
	sys := core.NewSystem(streamgraph.New(n, directedGraph), *k)
	sys.ApplyBatch(edges)
	for _, p := range strings.Split(*probs, ",") {
		if err := sys.Enable(p); err != nil {
			log.Fatal(err)
		}
	}
	if *resultCache > 0 {
		sys.EnableResultCache(*resultCache)
	}
	fmt.Printf("tripoline-server: %d vertices, %d arcs, problems %v, listening on %s\n",
		sys.NumVertices(), sys.NumEdges(), sys.Enabled(), *addr)
	srv := server.New(sys, serverOpts...)
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	// Graceful shutdown: on SIGINT/SIGTERM stop admitting (503), let
	// in-flight queries run out under -drain-timeout, then close.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Printf("tripoline-server: draining (up to %v)", *drainWait)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		log.Printf("tripoline-server: drain incomplete: %v", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("tripoline-server: shutdown: %v", err)
	}
}
