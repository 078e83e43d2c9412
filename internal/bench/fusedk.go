package bench

import (
	"fmt"
	"io"
	"time"

	"tripoline/internal/engine"
	"tripoline/internal/gen"
	"tripoline/internal/props"
	"tripoline/internal/standing"
	"tripoline/internal/streamgraph"
)

// AblationFusedKCell is one width point of the kernel width sweep:
// standing-refresh throughput of the width-K kernels on a fixed edge
// stream.
type AblationFusedKCell struct {
	Graph        string
	LogN         int
	K            int
	Batches      int
	EdgesApplied int64
	// Mean wall time per standing refresh (one Manager.Update call).
	FusedRefresh time.Duration
	// Refresh nanoseconds per applied update edge.
	FusedNsPerEdge float64
	// Kernel work counters accumulated over the refreshes.
	Hoists      int64
	GateSkips   int64
	BlockSweeps int64
}

// maxFusedKBatches bounds the refresh count per width so the sweep stays
// in minutes at LogN=16.
const maxFusedKBatches = 24

// fusedKRepeats is how many times each width replays the full batch
// sequence. The replay is deterministic, so repeats only differ by
// machine noise; the cell reports the minimum total — the standard
// least-noise estimator on a shared machine.
const fusedKRepeats = 3

// AblationFusedK sweeps the standing-query width K over an RMAT graph
// with 2^logn vertices: for each width it maintains K standing SSSP
// queries through a stream of update batches and reports per-refresh and
// per-edge throughput. Each width replays the sequence fusedKRepeats
// times and the fastest replay is reported. Correctness of the kernels
// at every width is the engine tests' and the differential checker's
// job, not this sweep's.
func AblationFusedK(w io.Writer, logn, batchSize int, widths []int, seed uint64) []AblationFusedKCell {
	cfg := gen.Config{Name: fmt.Sprintf("RMAT-%d", logn), LogN: logn, AvgDegree: 16, Seed: seed}
	edges := gen.RMAT(cfg)
	stream := gen.MakeStream(cfg.N(), edges, cfg.Directed, 0.6, batchSize, seed)
	batches := stream.Batches
	if len(batches) > maxFusedKBatches {
		batches = batches[:maxFusedKBatches]
	}

	type replayResult struct {
		total time.Duration
		stats engine.Stats
		edges int64
	}
	// Standing maintenance runs over the delta-patched flat mirror, the
	// way core drives it — the mirror is the ArcView the kernels'
	// cache-blocked dense sweeps need. Mirror maintenance itself is
	// outside the timed region (the deltaflat ablation measures that).
	replay := func(k int) replayResult {
		g := streamgraph.New(cfg.N(), cfg.Directed)
		g.InsertEdges(stream.Initial)
		snap := g.Acquire()
		flat := snap.Flatten()
		roots := topRoots(snap, k)
		mgr := standing.New(props.SSSP{}, flat, roots, cfg.Directed)
		var res replayResult
		for _, b := range batches {
			next, changed := g.InsertEdges(b)
			nextFlat := next.FlattenFrom(flat, changed)
			snap.RetireFlat()
			snap, flat = next, nextFlat
			t0 := time.Now()
			s := mgr.Update(flat, changed)
			res.total += time.Since(t0)
			res.stats.Add(s)
			res.edges += int64(len(b))
		}
		return res
	}

	var cells []AblationFusedKCell
	for _, k := range widths {
		best := replay(k)
		for r := 1; r < fusedKRepeats; r++ {
			if res := replay(k); res.total < best.total {
				best = res
			}
		}

		cell := AblationFusedKCell{
			Graph: cfg.Name, LogN: logn, K: k,
			Batches: len(batches), EdgesApplied: best.edges,
			FusedRefresh: best.total / time.Duration(len(batches)),
			Hoists:       best.stats.Hoists,
			GateSkips:    best.stats.GateSkips,
			BlockSweeps:  best.stats.BlockSweeps,
		}
		if best.edges > 0 {
			cell.FusedNsPerEdge = float64(best.total.Nanoseconds()) / float64(best.edges)
		}
		cells = append(cells, cell)
		fmt.Fprintf(w, "Ablation (fusedK, %s, K=%d): %v per refresh (%.1f ns/edge)  [hoists=%d gates=%d sweeps=%d]\n",
			cfg.Name, k,
			cell.FusedRefresh.Round(time.Microsecond), cell.FusedNsPerEdge,
			cell.Hoists, cell.GateSkips, cell.BlockSweeps)
	}
	return cells
}
