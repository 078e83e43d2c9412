package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// The end-to-end metrics, in reporting order. kind says how the run's
// machine speed enters the reported value (see reference.go): a time is
// multiplied by it, a rate divided by it, anything else left alone.
var e2eMetrics = []struct {
	name, unit string
	kind       metricKind
}{
	{"setup_s", "s", aTime},
	{"query_p50_ms", "ms", aTime},
	{"query_p90_ms", "ms", aTime},
	{"query_qps", "1/s", aRate},
	{"full_p50_ms", "ms", aTime},
	{"delta_speedup", "ratio", unscaled},
	{"batch_p50_ms", "ms", aTime},
	{"ingest_eps", "edges/s", aRate},
	{"heap_live_mb", "MB", unscaled},
}

type metricKind int

const (
	unscaled metricKind = iota
	aTime
	aRate
)

// Process settings the protocol pins (and echoes in the output).
const (
	pinnedProcs = 2
	pinnedGC    = 100
)

// untracedSetups is how many times an untraced run performs the timed
// set-up; setup_s is the median, and the last system built is the one
// the rounds run against.
const untracedSetups = 3

// setupSweeps is the number of reference sweeps taken before the first
// set-up and after each.
const setupSweeps = 4

// tracedRounds is how many of the measured rounds a traced run executes.
// Mirroring every mutation to two more stacks makes a traced round cost
// about half as much again; the per-layer metrics are medians over
// probes and do not need all five rounds, and the run has to fit the
// same wall-clock budget as an untraced one.
const tracedRounds = 3

// maxFailures aborts a run whose ops keep failing: after a failed
// mutation every later version check fails too, and there is nothing
// left to measure.
const maxFailures = 20

// roundStats accumulates one round's raw samples, per op class.
type roundStats struct {
	deltaMs    []float64     // Δ-query latencies (fresh sources and repeats)
	fullMs     []float64     // paired from-scratch latencies
	pairedMs   float64       // Σ Δ latency over the paired sources
	insertMs   []float64     // insert-batch apply latencies
	writeMs    float64       // Σ latency over all write ops
	writeEdges int           // edges those write ops applied
	wall       time.Duration // the round, reference sweeps excluded
}

// result is everything one run reports.
type result struct {
	workload   workload
	seed       uint64
	scriptHash uint64
	speed      float64 // the run's machine speed, reference machine = 1
	sweepMs    float64 // the reference sweep time it was derived from
	attempted  int
	failed     int
	correct    bool
	opCounts   map[opKind]int // per measured round
	measured   int            // measured rounds executed
	e2e        map[string]reduced
	layers     map[string]float64 // traced runs only
	tracePath  string
}

// runner is the one closed-loop client: it issues the script's ops in
// order, each when the previous one has returned, and checks every
// answer it gets.
type runner struct {
	t       target
	rig     *rig // nil on untraced runs
	version uint64
	res     *result
	ref     *reference
	sweeps  []float64 // every reference sweep of the run, in ms
}

// sweepEvery is how many ops pass between two reference sweeps inside a
// round: often enough for a hundred-odd readings of the machine's speed
// per run, rarely enough to add only a few percent to its length.
const sweepEvery = 8

// sweep takes n readings of the machine's speed and returns the time
// they took.
func (r *runner) sweep(n int) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		r.sweeps = append(r.sweeps, r.ref.sweep())
	}
	return time.Since(start)
}

func (r *runner) wrong(format string, args ...any) {
	if r.res.correct {
		fmt.Fprintf(os.Stderr, "benchmark: wrong answer: "+format+"\n", args...)
	}
	r.res.correct = false
}

func (r *runner) fail(o op, err error) error {
	r.res.failed++
	fmt.Fprintf(os.Stderr, "benchmark: %s op failed: %v\n", o.kind, err)
	if r.res.failed >= maxFailures {
		return fmt.Errorf("%d ops failed, giving up", r.res.failed)
	}
	return nil
}

// execRound runs one round of the script and returns its samples.
func (r *runner) execRound(ops []op) (roundStats, error) {
	var (
		st          roundStats
		deltaDigest uint64
		deltaMs     float64
	)
	var sweeping time.Duration
	start := time.Now()
	for i, o := range ops {
		if i%sweepEvery == 0 {
			sweeping += r.sweep(1)
		}
		r.res.attempted++
		if r.rig != nil {
			r.rig.tr.newOp()
		}
		switch o.kind {
		case opInsert, opDelete:
			if r.rig != nil && i > 0 {
				if err := r.rig.probe(); err != nil {
					return st, err
				}
			}
			m, d, err := r.t.mutate(o)
			if err != nil {
				if err := r.fail(o, err); err != nil {
					return st, err
				}
				continue
			}
			r.version++
			if m.version != r.version {
				r.wrong("%s batch published version %d, want %d", o.kind, m.version, r.version)
				r.version = m.version
			}
			ms := float64(d.Nanoseconds()) / 1e6
			if o.kind == opInsert {
				st.insertMs = append(st.insertMs, ms)
			}
			st.writeMs += ms
			st.writeEdges += len(o.edges)
			if r.rig != nil {
				if err := r.rig.mirror(o, m, d); err != nil {
					return st, err
				}
			}
		default:
			a, d, err := r.t.query(o)
			if err != nil {
				if err := r.fail(o, err); err != nil {
					return st, err
				}
				continue
			}
			if a.version != r.version {
				r.wrong("%s %s(%d) answered at version %d, want %d", o.kind, o.problem, o.source, a.version, r.version)
			}
			ms := float64(d.Nanoseconds()) / 1e6
			paired := o.kind == opFull || (i+1 < len(ops) && ops[i+1].kind == opFull)
			var digest uint64
			if paired {
				if digest, err = a.digest(); err != nil {
					r.wrong("%s %s(%d): %v", o.kind, o.problem, o.source, err)
				}
			}
			if o.kind == opFull {
				st.fullMs = append(st.fullMs, ms)
				st.pairedMs += deltaMs
				if digest != deltaDigest {
					r.wrong("%s(%d) at version %d: Δ answer differs from the from-scratch answer", o.problem, o.source, a.version)
				}
			} else {
				st.deltaMs = append(st.deltaMs, ms)
				deltaDigest, deltaMs = digest, ms
				if a.body != nil && a.cached != (o.kind == opRepeat) {
					r.wrong("%s %s(%d): cache hit = %v", o.kind, o.problem, o.source, a.cached)
				}
			}
			if r.rig != nil {
				r.rig.noteQuery(o, a, d)
			}
		}
		r.t.drain()
	}
	if r.rig != nil {
		if err := r.rig.probe(); err != nil {
			return st, err
		}
	}
	st.wall = time.Since(start) - sweeping
	return st, nil
}

// warmUp is the part of a round the warm-up executes: its first
// mutation slots, half of them rounded up (which includes the deletion
// slot when there is one), each with its queries. A whole round would
// warm nothing more and costs a tenth of the run.
func warmUp(round []op) []op {
	slots := 0
	for _, o := range round {
		if o.kind == opInsert || o.kind == opDelete {
			slots++
		}
	}
	seen := 0
	for i, o := range round {
		if o.kind == opInsert || o.kind == opDelete {
			if seen == (slots+1)/2 {
				return round[:i]
			}
			seen++
		}
	}
	return round
}

// perRound computes the per-round value of every round-reduced metric.
func (st roundStats) perRound() map[string]float64 {
	deltaTotal := sum(st.deltaMs)
	return map[string]float64{
		"query_p50_ms":  median(st.deltaMs),
		"query_p90_ms":  percentile(st.deltaMs, 0.9),
		"query_qps":     float64(len(st.deltaMs)) / (deltaTotal / 1e3),
		"full_p50_ms":   median(st.fullMs),
		"delta_speedup": sum(st.fullMs) / st.pairedMs,
		"batch_p50_ms":  median(st.insertMs),
		"ingest_eps":    float64(st.writeEdges) / (st.writeMs / 1e3),
	}
}

// newTarget performs the timed set-up for the workload's primary stack.
func newTarget(w workload, sc *script) (target, uint64, error) {
	if w.http {
		t, err := newHTTPTarget(w.problems, sc)
		if err != nil {
			return nil, 0, err
		}
		return t, t.router.Version(), nil
	}
	t, err := newCoreTarget(w.problems, sc)
	if err != nil {
		return nil, 0, err
	}
	return t, t.g.Acquire().Version(), nil
}

// runWorkload executes one run: script from the seed, timed set-up,
// subscriptions, warm-up round, measured rounds, heap reading — and on a
// traced run the layer probes and the trace file.
func runWorkload(w workload, seed uint64, traced bool, outDir string) (*result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(pinnedProcs))
	defer debug.SetGCPercent(debug.SetGCPercent(pinnedGC))

	sc, err := buildScript(w, seed)
	if err != nil {
		return nil, err
	}
	res := &result{workload: w, seed: seed, scriptHash: sc.hash(), correct: true,
		opCounts: counts(sc.rounds[1]), e2e: make(map[string]reduced)}
	run := &runner{res: res, ref: newReference()}

	// Set-up, several times over on an untraced run so setup_s is a
	// median; only the last system is kept. Reference sweeps before and
	// after each give the machine's speed while it ran.
	setups := untracedSetups
	if traced {
		setups = 1
	}
	var setupS []float64
	run.sweep(setupSweeps)
	for i := 0; i < setups; i++ {
		if run.t != nil {
			run.t.close()
			run.t = nil
			runtime.GC()
		}
		start := time.Now()
		run.t, run.version, err = newTarget(w, sc)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		run.sweep(setupSweeps)
	}
	defer func() { run.t.close() }()

	if ct, ok := run.t.(*coreTarget); ok && len(sc.subs) > 0 {
		if err := ct.subscribe(context.Background(), sc.subs); err != nil {
			return nil, fmt.Errorf("subscribe: %w", err)
		}
	}
	if traced {
		if run.rig, err = newRig(w, sc, run.t); err != nil {
			return nil, fmt.Errorf("probe rig: %w", err)
		}
		defer run.rig.close()
	}

	// Warm-up: the first half of a round, discarded. It fills slab pools,
	// mirrors and page tables; the only forced GC of the run follows it.
	if traced {
		run.rig.tr.round = phaseWarmup
	}
	if _, err := run.execRound(warmUp(sc.rounds[0])); err != nil {
		return nil, err
	}
	runtime.GC()

	perRound := make(map[string][]float64)
	var wall, opTime float64
	summary := 0
	measured := sc.rounds[1:]
	if traced {
		measured = measured[:tracedRounds]
	}
	res.measured = len(measured)
	for i, ops := range measured {
		if traced {
			tr := run.rig.tr
			tr.round = i + 1
			if i == 0 {
				tr.newOp()
				summary = tr.begin(0, "benchmark.rounds")
			}
		}
		st, err := run.execRound(ops)
		if err != nil {
			return nil, err
		}
		for name, v := range st.perRound() {
			perRound[name] = append(perRound[name], v)
		}
		wall += st.wall.Seconds()
		opTime += (sum(st.deltaMs) + sum(st.fullMs) + st.writeMs) / 1e3
	}
	perRound["setup_s"] = setupS

	// One machine speed for the run, from every sweep taken while it ran,
	// converts the medians to reference-machine units.
	res.sweepMs = percentile(run.sweeps, refQuantile)
	res.speed = refNominalMs / res.sweepMs
	for _, m := range e2eMetrics {
		if vs, ok := perRound[m.name]; ok {
			res.e2e[m.name] = reduceRounds(vs).onReferenceMachine(m.kind, res.speed)
		}
	}

	// Live heap with the system (and the script) still referenced.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapInuse) / (1 << 20)
	res.e2e["heap_live_mb"] = reduced{value: heapMB, measured: heapMB}
	runtime.KeepAlive(sc)

	if traced {
		tr := run.rig.tr
		tr.end(summary)
		spreadMax := 0.0
		for _, r := range res.e2e {
			spreadMax = max(spreadMax, r.spread)
		}
		tr.count(summary, "wall_ns", wall*1e9)
		tr.count(summary, "op_ns", opTime*1e9)
		tr.count(summary, "round_spread_max", spreadMax)
		tr.count(summary, "machine_speed", res.speed)
		run.rig.summarize(summary)
		tr.round = phaseExtras
		if err := run.rig.extras(); err != nil {
			return nil, fmt.Errorf("probe extras: %w", err)
		}
		if res.layers, err = layerMetrics(tr.spans); err != nil {
			return nil, err
		}
		res.tracePath, err = writeTrace(outDir, traceFile{
			Workload: w.name, Seed: seed, ScriptHash: fmt.Sprintf("%016x", res.scriptHash), Spans: tr.spans,
		})
		if err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	return res, nil
}
