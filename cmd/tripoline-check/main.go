// Command tripoline-check runs the workload-replay differential checker
// (internal/check): it generates seeded op schedules, replays each
// through a full core.System four ways (as written, shuffled batches,
// split batches, delete-then-reinsert), verifies every successful query
// against a from-scratch sequential oracle, and exits nonzero on any
// divergence. Diverging schedules are dd-minimized and, with -repro-dir,
// written out in the textual repro format that
// internal/check/testdata/repros replays as a regression corpus.
//
// Usage:
//
//	tripoline-check -schedules 200 -seed 1
//	tripoline-check -schedules 50 -seed 2 -json
//	tripoline-check -schedules 10000 -seed 7 -repro-dir ./repros
//	tripoline-check -serving -schedules 1000 -seed 1
//	tripoline-check -corrupt-transpose -schedules 5
//
// -serving replays the same schedules against the Δ-result cache and
// subscription surface instead, verifying every cached answer and every
// pushed frame against the oracle at its reported version.
// -corrupt-delta and -corrupt-transpose arm the replays' skew seams — a
// corrupted mirror, a corrupted transposed mirror — which the serving
// replay does not have, so either with -serving is a usage error. Both
// self-tests must exit 1.
//
// Exit status: 0 when every schedule passes, 1 on any divergence, 2 on a
// usage or output error. The run is deterministic: the same
// -schedules/-seed pair replays the identical workloads and produces the
// identical verdicts (the cancels_fired counter and the verified count
// depend on whether a cancellation landed before the run converged,
// which depends on engine scheduling and may vary).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"tripoline/internal/check"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit (args without the
// program name, output streams) so the CLI test can drive it in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tripoline-check", flag.ContinueOnError)
	fs.SetOutput(stderr)
	schedules := fs.Int("schedules", 200, "number of schedules to generate and check")
	seed := fs.Uint64("seed", 1, "master seed; per-schedule seeds are derived from it")
	jsonOut := fs.Bool("json", false, "emit the summary as JSON")
	reproDir := fs.String("repro-dir", "", "write dd-minimized repros for diverging schedules into this directory")
	corrupt := fs.Bool("corrupt-delta", false, "arm the skew-delta fault seam of the replays (self-test: the run must diverge)")
	corruptT := fs.Bool("corrupt-transpose", false, "arm the skew-transpose fault seam of the replays (self-test: the run must diverge on directed schedules)")
	serving := fs.Bool("serving", false, "run the serving-layer checker (Delta-result cache + subscriptions) instead of the replay checker")
	verbose := fs.Bool("v", false, "print one line per schedule")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*corrupt || *corruptT) && *serving {
		fmt.Fprintln(stderr, "tripoline-check: -corrupt-delta and -corrupt-transpose arm a store seam the -serving replay does not have")
		fs.Usage()
		return 2
	}

	ctx := context.Background()
	opts := check.Options{CorruptDelta: *corrupt, CorruptTranspose: *corruptT, Serving: *serving}
	start := time.Now()
	repros := 0
	sum := check.RunMany(ctx, *schedules, *seed, opts, func(i int, v check.Verdict) {
		if *verbose || v.Diverged {
			fmt.Fprintf(stderr, "schedule %d: seed=%d n=%d ops=%d queries=%d verified=%d hits=%d frames=%d subs=%d diverged=%v\n",
				i, v.Seed, v.N, v.Ops, v.Queries, v.Verified, v.CacheHits, v.Frames, v.Subscriptions, v.Diverged)
		}
		if !v.Diverged {
			return
		}
		for _, r := range v.Reasons {
			fmt.Fprintf(stderr, "  %s\n", r)
		}
		if *reproDir != "" {
			if err := writeRepro(ctx, *reproDir, v.Seed, opts); err != nil {
				fmt.Fprintf(stderr, "  repro: %v\n", err)
			} else {
				repros++
			}
		}
	})
	elapsed := time.Since(start)

	if *jsonOut {
		out := struct {
			check.Summary
			Serving         bool    `json:"serving,omitempty"`
			ElapsedMS       int64   `json:"elapsed_ms"`
			SchedulesPerSec float64 `json:"schedules_per_sec"`
			ReprosWritten   int     `json:"repros_written,omitempty"`
		}{sum, *serving, elapsed.Milliseconds(), float64(sum.Schedules) / elapsed.Seconds(), repros}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "tripoline-check: %v\n", err)
			return 2
		}
	} else {
		fmt.Fprintf(stdout, "checked %d schedules (%d directed, %d undirected; seed %d, serving=%v) in %v: %d queries, %d answers verified, %d divergences\n",
			sum.Schedules, sum.Directed, sum.Undirected, sum.Seed, *serving, elapsed.Round(time.Millisecond), sum.Queries, sum.Verified, sum.Divergences)
		if *serving {
			fmt.Fprintf(stdout, "serving: %d cache hits, %d frames over %d subscriptions, %d frames dropped by lossy ones\n",
				sum.CacheHits, sum.Frames, sum.Subscriptions, sum.FramesDropped)
		} else {
			fmt.Fprintf(stdout, "faults: cancels=%d (fired %d)\n",
				sum.Faults.Cancels, sum.Faults.CancelsFired)
		}
	}
	if sum.Divergences > 0 {
		return 1
	}
	return 0
}

// writeRepro regenerates, shrinks, and saves one diverging schedule.
func writeRepro(ctx context.Context, dir string, seed uint64, opts check.Options) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	s := check.Generate(check.Params{Seed: seed})
	min := check.Shrink(ctx, s, opts)
	path := filepath.Join(dir, fmt.Sprintf("seed-%d.txt", seed))
	return os.WriteFile(path, check.Encode(min), 0o644)
}
