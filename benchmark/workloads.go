package main

import "fmt"

// workload is one fixed-work script shape. A run is
// setup → warm-up round → rounds identical-shape measured rounds; a
// round is slots mutation slots (the insert batches plus the deletion
// batch, if any), each followed by its share of the round's queries.
type workload struct {
	name string
	why  string

	logN     int     // RMAT vertices = 1 << logN
	degree   float64 // RMAT edges = degree · vertices, 60 % preloaded
	problems []string
	// queried is the rotation the round's queries (and pairs) cycle
	// through; nil = problems. A quantile taken over an even mix of two
	// problems of different cost sits on the boundary between the two
	// classes — at the extreme samples of both — and neither repeats nor
	// means anything, so a rotation names its costlier problem twice: at
	// 2:1 the median and the 90th percentile both fall inside that class.
	queried []string

	// http routes every op through internal/server on a loopback
	// listener over a servingShards-way shard.Router with the router
	// result cache on; otherwise ops call core.System directly.
	http bool

	// Per-round fixed work.
	deltas      int // Δ-queries on never-repeated sources
	fulls       int // of which are followed by a paired from-scratch query
	repeats     int // re-asks of a source already asked at the current version
	batches     int // insert batches
	batchEdges  int // edges per insert batch
	deleteEdges int // edges of the round's one deletion batch (0 = none)

	subs int // live subscriptions the client drains between ops
}

// rounds is the number of measured rounds every metric is a median of.
const rounds = 5

// nominalSeconds is the -seconds value the per-round counts below are
// calibrated for on the reference machine (2 cores): the five measured
// rounds then take about that long. Other values scale the counts.
const nominalSeconds = 20

// Sample floors per round (× rounds = the protocol's per-workload
// floors: 600 Δ-queries, 100 paired full queries, 20 insert batches).
const (
	floorDeltas  = 120
	floorFulls   = 20
	floorBatches = 4
)

var allProblems = []string{"SSSP", "SSWP", "Viterbi", "BFS", "SSNP", "SSR", "Radii", "SSNSP"}

var workloads = []workload{
	{
		name: "query-additive",
		why:  "additive combine (SSSP, BFS) leaves real propagation after delta-init, so engine push kernels and the flat mirror carry the query time",
		logN: 17, degree: 16, problems: []string{"SSSP", "BFS"}, queried: []string{"SSSP", "BFS", "SSSP"},
		deltas: 120, fulls: 30, batches: 4, batchEdges: 10000,
	},
	{
		name: "query-minmax",
		why:  "min/max combine (SSWP, SSNP) makes delta-init almost exact, so select, delta-init, allocation and result copy carry the query time and the engine idles",
		logN: 18, degree: 4, problems: []string{"SSWP", "SSNP"},
		deltas: 240, fulls: 30, batches: 4, batchEdges: 10000,
	},
	{
		name: "ingest-churn",
		why:  "all eight problems maintained, 32 drained subscriptions, 3k-edge inserts plus deletions: write-dominated, so insert, mirror patch, width-16 maintenance and trimming carry the time",
		logN: 15, degree: 8, problems: allProblems, queried: []string{"SSSP", "BFS", "SSSP"},
		deltas: 180, fulls: 30, batches: 4, batchEdges: 3000, deleteEdges: 100, subs: 32,
	},
	{
		name: "serve-sharded",
		why:  "loopback HTTP over a 4-shard router with the result cache on and an exact 20% repeat share: scatter/gather, barrier, JSON encode and cache are on the path only here",
		logN: 15, degree: 16, problems: []string{"SSSP", "SSWP"}, queried: []string{"SSSP", "SSWP", "SSSP"}, http: true,
		deltas: 180, fulls: 30, repeats: 45, batches: 8, batchEdges: 1000,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled sizes the per-round query counts for a -seconds budget: linear
// in seconds/nominalSeconds, never below the sample floors. Batches per
// round stay fixed — they set how often the version advances, which is
// part of the workload's shape rather than its length.
func (w workload) scaled(seconds int) workload {
	// Counts stay multiples of the query rotation's length so that every
	// queried problem gets the same number of queries and of pairs.
	p := len(w.queryProblems())
	scale := func(n, floor int) int {
		n = max(floor, (n*seconds+nominalSeconds/2)/nominalSeconds)
		return (n + p - 1) / p * p
	}
	w.repeats = w.repeats * scale(w.deltas, floorDeltas) / w.deltas
	w.deltas = scale(w.deltas, floorDeltas)
	w.fulls = scale(w.fulls, floorFulls)
	w.batches = max(w.batches, floorBatches)
	return w
}

// queryProblems is the rotation the round's queries draw from.
func (w workload) queryProblems() []string {
	if w.queried != nil {
		return w.queried
	}
	return w.problems
}

// slots is the number of mutation slots in one round.
func (w workload) slots() int {
	if w.deleteEdges > 0 {
		return w.batches + 1
	}
	return w.batches
}
