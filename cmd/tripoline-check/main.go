// Command tripoline-check runs the workload-replay differential checker
// (internal/check): it generates seeded op schedules, replays each
// through a full core.System four ways (as written, shuffled batches,
// split batches, delete-then-reinsert), verifies every
// successful query against a from-scratch sequential oracle, and exits
// nonzero on any divergence. Diverging schedules are dd-minimized and,
// with -repro-dir, written out in the textual repro format that
// internal/check/testdata/repros replays as a regression corpus.
//
// Usage:
//
//	tripoline-check -schedules 200 -seed 1
//	tripoline-check -schedules 50 -seed 2 -json
//	tripoline-check -schedules 10000 -seed 7 -repro-dir ./repros
//	tripoline-check -serving -schedules 1000 -seed 1
//	tripoline-check -serving -shards 4 -schedules 100 -seed 1
//	tripoline-check -shards 4 -schedules 100 -seed 1
//
// -serving selects the serving-layer variant instead: the same generated
// schedules replayed against the Δ-result cache and subscription
// surface, verifying every cached answer and every pushed frame against
// the from-scratch oracle at its reported version — through an N-shard
// router with -shards N. -shards N alone selects the sharded variant: each
// schedule replayed through a core.System and an N-shard router, every
// result diffed.
//
// The run is deterministic: the same -schedules/-seed pair replays the
// identical workloads and produces the identical verdicts (the *_fired
// fault counters report whether an injected fault landed before the run
// converged, which depends on engine scheduling and may vary).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tripoline/internal/check"
)

func main() {
	os.Exit(run())
}

func run() int {
	schedules := flag.Int("schedules", 200, "number of schedules to generate and check")
	seed := flag.Uint64("seed", 1, "master seed; per-schedule seeds are derived from it")
	jsonOut := flag.Bool("json", false, "emit the summary as JSON")
	reproDir := flag.String("repro-dir", "", "write dd-minimized repros for diverging schedules into this directory")
	corrupt := flag.Bool("corrupt-delta", false, "arm the skew-delta fault seam (self-test: every flat replay must diverge)")
	serving := flag.Bool("serving", false, "run the serving-layer checker (Delta-result cache + subscriptions) instead of the replay checker")
	shards := flag.Int("shards", 0, "run the sharded checker: replay each schedule through a core.System and an N-shard router and diff every result; with -serving, serve through an N-shard router")
	verbose := flag.Bool("v", false, "print one line per schedule")
	flag.Parse()

	if *serving {
		return runServing(*schedules, *seed, *shards, *jsonOut, *verbose)
	}
	if *shards > 1 {
		return runSharded(*schedules, *seed, *shards, *jsonOut, *verbose)
	}

	opts := check.Options{CorruptDelta: *corrupt}
	start := time.Now()
	repros := 0
	sum := check.RunMany(*schedules, *seed, opts, func(i int, v check.Verdict) {
		if *verbose || v.Diverged {
			fmt.Fprintf(os.Stderr, "schedule %d: seed=%d n=%d ops=%d queries=%d diverged=%v\n",
				i, v.Seed, v.N, v.Ops, v.Queries, v.Diverged)
		}
		if !v.Diverged {
			return
		}
		for _, r := range v.Reasons {
			fmt.Fprintf(os.Stderr, "  %s\n", r)
		}
		if *reproDir != "" {
			if err := writeRepro(*reproDir, v.Seed, opts); err != nil {
				fmt.Fprintf(os.Stderr, "  repro: %v\n", err)
			} else {
				repros++
			}
		}
	})
	elapsed := time.Since(start)

	if *jsonOut {
		out := struct {
			check.Summary
			ElapsedMS       int64   `json:"elapsed_ms"`
			SchedulesPerSec float64 `json:"schedules_per_sec"`
			ReprosWritten   int     `json:"repros_written,omitempty"`
		}{sum, elapsed.Milliseconds(), float64(sum.Schedules) / elapsed.Seconds(), repros}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "tripoline-check: %v\n", err)
			return 2
		}
	} else {
		fmt.Printf("checked %d schedules (seed %d) in %v: %d queries, %d divergences\n",
			sum.Schedules, sum.Seed, elapsed.Round(time.Millisecond), sum.Queries, sum.Divergences)
		fmt.Printf("faults: cancels=%d (fired %d) deny-retain=%d force-full=%d evicts=%d (fired %d)\n",
			sum.Faults.Cancels, sum.Faults.CancelsFired, sum.Faults.DenyRetain,
			sum.Faults.ForceFull, sum.Faults.Evicts, sum.Faults.EvictsFired)
	}
	if sum.Divergences > 0 {
		return 1
	}
	return 0
}

// runSharded drives the sharded differential checker: each schedule is
// replayed through a core.System and an S-shard router, and every
// non-volatile observation is diffed at its exact version.
func runSharded(schedules int, seed uint64, shards int, jsonOut, verbose bool) int {
	start := time.Now()
	sum := check.RunShardedMany(context.Background(), schedules, seed, shards, func(i int, v check.Verdict) {
		if verbose || v.Diverged {
			fmt.Fprintf(os.Stderr, "schedule %d: seed=%d n=%d ops=%d queries=%d diverged=%v\n",
				i, v.Seed, v.N, v.Ops, v.Queries, v.Diverged)
		}
		for _, r := range v.Reasons {
			fmt.Fprintf(os.Stderr, "  %s\n", r)
		}
	})
	elapsed := time.Since(start)

	if jsonOut {
		out := struct {
			check.Summary
			Shards          int     `json:"shards"`
			ElapsedMS       int64   `json:"elapsed_ms"`
			SchedulesPerSec float64 `json:"schedules_per_sec"`
		}{sum, shards, elapsed.Milliseconds(), float64(sum.Schedules) / elapsed.Seconds()}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "tripoline-check: %v\n", err)
			return 2
		}
	} else {
		fmt.Printf("sharded-checked %d schedules (seed %d, S=%d) in %v: %d queries, %d divergences\n",
			sum.Schedules, sum.Seed, shards, elapsed.Round(time.Millisecond), sum.Queries, sum.Divergences)
		fmt.Printf("faults: cancels=%d (fired %d) deny-retain=%d force-full=%d evicts=%d\n",
			sum.Faults.Cancels, sum.Faults.CancelsFired, sum.Faults.DenyRetain, sum.Faults.ForceFull, sum.Faults.Evicts)
	}
	if sum.Divergences > 0 {
		return 1
	}
	return 0
}

// runServing drives the serving-layer checker over the same derived
// schedule sequence the replay checker uses, through a core.System or,
// with shards > 1, an S-shard router.
func runServing(schedules int, seed uint64, shards int, jsonOut, verbose bool) int {
	shards = max(shards, 1)
	start := time.Now()
	sum := check.RunServingMany(context.Background(), schedules, seed, shards, func(i int, v check.ServingVerdict) {
		if verbose || v.Diverged {
			fmt.Fprintf(os.Stderr, "schedule %d: seed=%d n=%d ops=%d hits=%d frames=%d subs=%d diverged=%v\n",
				i, v.Seed, v.N, v.Ops, v.CacheHits, v.Frames, v.Subscriptions, v.Diverged)
		}
		for _, r := range v.Reasons {
			fmt.Fprintf(os.Stderr, "  %s\n", r)
		}
	})
	elapsed := time.Since(start)

	if jsonOut {
		out := struct {
			check.ServingSummary
			Shards          int     `json:"shards"`
			ElapsedMS       int64   `json:"elapsed_ms"`
			SchedulesPerSec float64 `json:"schedules_per_sec"`
		}{sum, shards, elapsed.Milliseconds(), float64(sum.Schedules) / elapsed.Seconds()}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "tripoline-check: %v\n", err)
			return 2
		}
	} else {
		fmt.Printf("serving-checked %d schedules (seed %d, S=%d) in %v: %d cache hits, %d frames over %d subscriptions, %d divergences\n",
			sum.Schedules, sum.Seed, shards, elapsed.Round(time.Millisecond),
			sum.CacheHits, sum.Frames, sum.Subscriptions, sum.Divergences)
	}
	if sum.Divergences > 0 {
		return 1
	}
	return 0
}

// writeRepro regenerates, shrinks, and saves one diverging schedule.
func writeRepro(dir string, seed uint64, opts check.Options) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	s := check.Generate(check.Params{Seed: seed})
	min := check.Shrink(s, opts)
	path := filepath.Join(dir, fmt.Sprintf("seed-%d.txt", seed))
	return os.WriteFile(path, check.Encode(min), 0o644)
}
