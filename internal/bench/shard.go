package bench

import (
	"fmt"
	"io"
	"time"

	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/shard"
	"tripoline/internal/xrand"
)

// AblationShardCell is one shard-count point of the sharded-core
// ablation: batch-apply and query throughput of a shard.Router with S
// hash-partitioned core.System instances, against the identical edge
// stream and query mix. S=1 is the unsharded baseline (the router
// delegates everything to its single system), so the speedup columns
// read directly as "what partitioning buys".
type AblationShardCell struct {
	Graph  string
	LogN   int
	Shards int
	// Update-batch application.
	Batches          int
	EdgesApplied     int64
	ApplyTotal       time.Duration
	ApplyEdgesPerSec float64
	// Incremental (Δ-initialized, scatter/gather) user queries.
	Queries       int
	QueryTotal    time.Duration
	QueriesPerSec float64
	// From-scratch full queries over the union graph.
	FullTotal  time.Duration
	FullPerSec float64
	// Speedups relative to the S=1 cell of the same sweep.
	ApplySpeedup float64
	QuerySpeedup float64
	FullSpeedup  float64
	// Verified is true when every query result matched the S=1 run bit
	// for bit (the relaxation fixpoint is unique, so divergence is a
	// router bug, not noise).
	Verified bool
}

// maxShardBatches bounds the replayed update batches per repeat so the
// sweep stays in minutes at LogN=16.
const maxShardBatches = 12

// shardRepeats replays the deterministic sequence this many times per
// shard count, keeping the fastest totals (minimum-of-repeats, the
// least-noise estimator on a shared machine).
const shardRepeats = 3

// shardQueries is the per-repeat query count (each issued both
// incrementally and as a full evaluation).
const shardQueries = 12

// AblationShard sweeps the shard count over an RMAT graph with 2^logn
// vertices: for each S it loads 60% of the stream, enables K standing
// SSSP queries per shard, then measures (a) applying the remaining
// update batches and (b) a fixed mix of incremental and full user
// queries. Every S>1 run's query values are verified bit for bit
// against the S=1 run's; a divergence panics rather than reporting a
// tainted speedup.
func AblationShard(w io.Writer, logn, batchSize, k int, shardCounts []int, seed uint64) []AblationShardCell {
	cfg := gen.Config{Name: fmt.Sprintf("RMAT-%d", logn), LogN: logn, AvgDegree: 16, Seed: seed}
	edges := gen.RMAT(cfg)
	stream := gen.MakeStream(cfg.N(), edges, cfg.Directed, 0.6, batchSize, seed)
	batches := stream.Batches
	if len(batches) > maxShardBatches {
		batches = batches[:maxShardBatches]
	}
	qrng := xrand.New(seed ^ 0x5a5a)
	queries := make([]graph.VertexID, shardQueries)
	for i := range queries {
		queries[i] = graph.VertexID(qrng.Uint64() % uint64(cfg.N()))
	}

	type runResult struct {
		applyTotal time.Duration
		queryTotal time.Duration
		fullTotal  time.Duration
		edges      int64
		values     [][]uint64 // per query, for cross-S verification
	}
	runOnce := func(s int) runResult {
		r := shard.New(cfg.N(), cfg.Directed, s, k)
		r.ApplyBatch(stream.Initial) // untimed initial load
		if err := r.Enable("SSSP"); err != nil {
			panic(err)
		}
		var res runResult
		for _, b := range batches {
			t0 := time.Now()
			r.ApplyBatch(b)
			res.applyTotal += time.Since(t0)
			res.edges += int64(len(b))
		}
		for _, u := range queries {
			t0 := time.Now()
			qr, err := r.Query("SSSP", u)
			res.queryTotal += time.Since(t0)
			if err != nil {
				panic(err)
			}
			res.values = append(res.values, qr.Values)
			t1 := time.Now()
			fr, err := r.QueryFull("SSSP", u)
			res.fullTotal += time.Since(t1)
			if err != nil {
				panic(err)
			}
			for v := range qr.Values {
				if qr.Values[v] != fr.Values[v] {
					panic(fmt.Sprintf("bench: shard S=%d query %d: incremental and full disagree at %d", s, u, v))
				}
			}
		}
		return res
	}

	var (
		cells                          []AblationShardCell
		baseline                       *runResult
		baseApply, baseQuery, baseFull time.Duration
	)
	for _, s := range shardCounts {
		best := runOnce(s)
		for rep := 1; rep < shardRepeats; rep++ {
			r := runOnce(s)
			if r.applyTotal < best.applyTotal {
				best.applyTotal = r.applyTotal
			}
			if r.queryTotal < best.queryTotal {
				best.queryTotal = r.queryTotal
			}
			if r.fullTotal < best.fullTotal {
				best.fullTotal = r.fullTotal
			}
		}
		cell := AblationShardCell{
			Graph: cfg.Name, LogN: logn, Shards: s,
			Batches: len(batches), EdgesApplied: best.edges,
			ApplyTotal: best.applyTotal,
			Queries:    len(queries),
			QueryTotal: best.queryTotal,
			FullTotal:  best.fullTotal,
			Verified:   true,
		}
		if best.applyTotal > 0 {
			cell.ApplyEdgesPerSec = float64(best.edges) / best.applyTotal.Seconds()
		}
		if best.queryTotal > 0 {
			cell.QueriesPerSec = float64(len(queries)) / best.queryTotal.Seconds()
		}
		if best.fullTotal > 0 {
			cell.FullPerSec = float64(len(queries)) / best.fullTotal.Seconds()
		}
		if baseline == nil {
			b := best
			baseline = &b
			baseApply, baseQuery, baseFull = best.applyTotal, best.queryTotal, best.fullTotal
		} else {
			for q := range queries {
				bv, sv := baseline.values[q], best.values[q]
				if len(bv) != len(sv) {
					panic(fmt.Sprintf("bench: shard S=%d query %d: length %d vs %d", s, queries[q], len(sv), len(bv)))
				}
				for v := range bv {
					if bv[v] != sv[v] {
						panic(fmt.Sprintf("bench: shard S=%d query %d vertex %d: %#x vs baseline %#x",
							s, queries[q], v, sv[v], bv[v]))
					}
				}
			}
		}
		if baseApply > 0 && cell.ApplyTotal > 0 {
			cell.ApplySpeedup = float64(baseApply) / float64(cell.ApplyTotal)
		}
		if baseQuery > 0 && cell.QueryTotal > 0 {
			cell.QuerySpeedup = float64(baseQuery) / float64(cell.QueryTotal)
		}
		if baseFull > 0 && cell.FullTotal > 0 {
			cell.FullSpeedup = float64(baseFull) / float64(cell.FullTotal)
		}
		cells = append(cells, cell)
		c := cell
		fmt.Fprintf(w, "Ablation (shard, %s, S=%d): apply=%.0f edges/s (%.2fx) Δ-query=%.2f q/s (%.2fx) full=%.2f q/s (%.2fx) [batches=%d queries=%d verified=%v]\n",
			cfg.Name, s, c.ApplyEdgesPerSec, c.ApplySpeedup,
			c.QueriesPerSec, c.QuerySpeedup, c.FullPerSec, c.FullSpeedup,
			c.Batches, c.Queries, c.Verified)
	}
	return cells
}
