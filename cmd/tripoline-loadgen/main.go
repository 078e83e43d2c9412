// Command tripoline-loadgen drives synthetic client load at a
// tripoline-server and reports per-endpoint latency quantiles, status
// accounting, and protocol-contract violations.
//
// Usage:
//
//	tripoline-loadgen -scenario query-heavy -duration 10s          # self-hosted target
//	tripoline-loadgen -target http://host:8080 -scenario all       # live server
//	tripoline-loadgen -scenario all -duration 5s -max-inflight 4,16,64  # scenarios + saturation sweep
//	tripoline-loadgen -conform                                     # 429 admission probe
//
// With no -target the driver self-hosts an in-process server built the
// same way cmd/tripoline-server builds one, so a seeded run doubles as
// a contract smoke test. SIGINT mid-run prints the summary of
// everything recorded so far instead of discarding the run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tripoline/internal/loadgen"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tripoline-loadgen:", err)
	os.Exit(1)
}

func main() {
	var (
		target   = flag.String("target", "", "base URL of a live tripoline-server (empty self-hosts an in-process server)")
		scenario = flag.String("scenario", "query-heavy", "scenario to replay, or \"all\" ("+loadgen.ScenarioNames()+")")
		duration = flag.Duration("duration", 10*time.Second, "run length per scenario")
		workers  = flag.Int("workers", 0, "closed-loop worker count (0 = scenario default)")
		rate     = flag.Float64("rate", 0, "offered req/s across all workers (0 = scenario default, negative = unpaced)")
		seed     = flag.Uint64("seed", 0x51ab, "deterministic op-stream seed")
		sweepArg = flag.String("max-inflight", "", "comma-separated admission settings for a saturation sweep over self-hosted servers (e.g. 4,16,64)")
		conform  = flag.Bool("conform", false, "run the 429 admission probe against a self-hosted server, then exit")
		vertices = flag.Int("vertices", 2048, "self-hosted graph size (ignored with -target)")
		edges    = flag.Int("edges", 0, "self-hosted seed edge count (0 = 8x vertices; ignored with -target)")
	)
	flag.Parse()

	// SIGINT/SIGTERM cancel the context; the runner returns the partial
	// report, which still gets printed — the mid-run summary contract.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *conform {
		runConform(ctx)
		return
	}

	var scenarios []loadgen.Scenario
	if *scenario == "all" {
		scenarios = loadgen.Scenarios
	} else {
		sc, ok := loadgen.ScenarioByName(*scenario)
		if !ok {
			fatal(fmt.Errorf("unknown scenario %q (want %s, or all)", *scenario, loadgen.ScenarioNames()))
		}
		scenarios = []loadgen.Scenario{sc}
	}

	selfHost := loadgen.SelfHostConfig{
		Vertices: *vertices, Edges: *edges, Seed: *seed,
		HistoryCapacity: 16, CacheEntries: 256,
	}

	exitCode := 0
	for _, sc := range scenarios {
		cfg := loadgen.Config{
			BaseURL:  *target,
			Scenario: sc,
			Workers:  *workers,
			RateRPS:  *rate,
			Duration: *duration,
			Seed:     *seed,
		}
		var tgt *loadgen.Target
		if *target == "" {
			// Fresh server per scenario: drain-under-load leaves its target
			// drained, which must not poison the next scenario's run.
			t, err := loadgen.SelfHost(selfHost)
			if err != nil {
				fatal(err)
			}
			tgt = t
			cfg.BaseURL = t.URL
			cfg.DrainFn = t.Drain
		}
		rep, err := loadgen.Run(ctx, cfg)
		if tgt != nil {
			tgt.Close()
		}
		if err != nil {
			fatal(err)
		}
		rep.WriteText(os.Stdout)
		fmt.Fprintln(os.Stdout)
		if len(rep.ContractViolations()) > 0 {
			exitCode = 1
		}
		if rep.Interrupted {
			break // SIGINT: summarize what ran, skip the remaining scenarios
		}
	}

	if *sweepArg != "" && ctx.Err() == nil {
		settings, err := parseInts(*sweepArg)
		if err != nil {
			fatal(fmt.Errorf("bad -max-inflight list: %w", err))
		}
		// The sweep varies a server construction parameter, so it always
		// self-hosts — a remote -target cannot be re-admissioned from here.
		sweepWorkers := *workers
		if sweepWorkers <= 0 {
			sweepWorkers = 2 * maxOf(settings)
		}
		sc, _ := loadgen.ScenarioByName("query-heavy")
		// Cache hits bypass the admission gate, so a cached sweep never
		// saturates; the curve only means something evaluating every query.
		// Likewise evaluation must dominate the round trip for the gate to
		// contend at all, so unless -vertices was pinned explicitly the
		// sweep runs a heavier graph than the scenario default.
		sweepHost := selfHost
		sweepHost.CacheEntries = 0
		verticesPinned := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "vertices" {
				verticesPinned = true
			}
		})
		if !verticesPinned {
			sweepHost.Vertices = 32768
			sweepHost.Edges = 0 // re-derive 8x from the new size
		}
		if _, err := loadgen.SaturationSweep(ctx, sweepHost, sc, settings, sweepWorkers, *duration, *seed, os.Stdout); err != nil && ctx.Err() == nil {
			fatal(err)
		}
	}
	os.Exit(exitCode)
}

// runConform probes the admission gate's 429 contract on every gated
// endpoint of a self-hosted server, exiting nonzero on any violation.
func runConform(ctx context.Context) {
	violations, err := loadgen.ProbeAdmission(ctx)
	if err != nil {
		fatal(err)
	}
	if len(violations) == 0 {
		fmt.Println("admission probe: all endpoints answered 429 with Retry-After")
		return
	}
	for _, v := range violations {
		fmt.Printf("  ADMISSION VIOLATION: %s\n", v)
	}
	os.Exit(1)
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if n < 1 {
			return nil, fmt.Errorf("setting %d < 1", n)
		}
		out = append(out, n)
	}
	return out, nil
}

func maxOf(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
