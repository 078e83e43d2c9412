// Package check is the workload-replay differential checker: it drives a
// full core.System through a seeded, generated schedule of operations —
// insertion and deletion batches (with the standing-query maintenance
// they trigger), user queries at arbitrary sources, historical queries,
// cancellations at chosen supersteps and concurrent readers — and
// cross-checks every observable result against a from-scratch sequential
// recomputation (internal/oracle) on a reference graph fed the same
// mutations — a map of arcs, built into a CSR by code the store does not
// share. On top of the oracle the replayer checks metamorphic invariants
// — batch-split invariance, insertion-order invariance within a batch and
// delete-then-reinsert identity — and Options.Serving replays the serving
// surface (result cache, subscriptions) instead. CheckSchedule is the one
// entry point. Divergences are shrunk through internal/dd's ddmin into
// checked-in repros (testdata/repros).
package check

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"tripoline/internal/graph"
	"tripoline/internal/xrand"
)

// Problems are the problems every replay enables, covering what the
// system has: a standing set with two readers — BFS (Δ-initialized
// vertex-specific query) and SSNSP (the same evaluation over the same
// set, plus an exact recount round), so every schedule drives a shared
// set through each fault with both — a weighted standing set, SSSP
// (weighted Δ-initialization, and deletions that trim by witness
// weight), two plateau standing sets, SSWP and SSR (min/max combines
// whose witness test taints most of the reached region, so a deletion
// floods the trim's taint worklist and its repair), and the two
// maintained answers, PageRank (whole-graph, resumed float iteration)
// and CC (whole-graph, resumed min-label propagation). CC is enabled on
// undirected schedules only: there the CC min-label fixpoint equals the
// oracle's union-find components (Schedule.Problems).
var Problems = []string{"SSNSP", "PageRank", "CC", "BFS", "SSSP", "SSWP", "SSR"}

// directedProblems is Problems without CC, for directed schedules.
var directedProblems = []string{"SSNSP", "PageRank", "BFS", "SSSP", "SSWP", "SSR"}

// OpKind enumerates the schedule operations.
type OpKind uint8

const (
	// OpInsert applies one edge batch through ApplyBatch.
	OpInsert OpKind = iota
	// OpDelete applies one edge batch through ApplyDeletions.
	OpDelete
	// OpQuery runs a Δ-initialized user query.
	OpQuery
	// OpQueryFull runs a from-scratch user query.
	OpQueryFull
	// OpQueryAt runs a historical query at the VerIdx-th recorded version.
	OpQueryAt
	// OpCancel runs a query under a context that cancels after Step
	// consultations (i.e. at a chosen superstep boundary).
	OpCancel
	// OpReaders runs Readers concurrent Δ-initialized queries.
	OpReaders

	numOpKinds
)

// letters maps op kinds to their one-character encoding.
var letters = [numOpKinds]string{"i", "d", "q", "Q", "h", "c", "r"}

func (k OpKind) String() string {
	if int(k) < len(letters) {
		return letters[k]
	}
	return "?"
}

// Op is one schedule operation. Which fields are meaningful depends on
// Kind; unused fields are zero.
type Op struct {
	Kind    OpKind
	Problem string
	Source  graph.VertexID
	Edges   []graph.Edge // insert/delete batches (canonical src<dst pairs)
	VerIdx  int          // OpQueryAt: index into the replay's recorded version list
	Step    int          // OpCancel: context consultations before cancellation fires
	Readers int          // OpReaders: concurrent reader count
}

// Schedule is a reproducible workload: replaying it with the same code
// is deterministic up to engine scheduling (which the checker's
// comparisons are insensitive to by construction).
type Schedule struct {
	Seed uint64 // generation seed, recorded for repros
	N    int    // initial vertex range
	// Directed makes every batch edge an arc src→dst of a directed graph;
	// otherwise edges are undirected and written src<dst.
	Directed bool
	Ops      []Op
}

// Problems lists the problems a replay of s enables and queries.
func (s *Schedule) Problems() []string {
	if s.Directed {
		return directedProblems
	}
	return Problems
}

// WeightFor derives an edge's weight from its unordered endpoints, so
// every mention of one logical edge — across batches, shuffles, splits,
// and delete/reinsert round trips — carries the same weight and the
// metamorphic variants stay semantically identical workloads.
func WeightFor(s, d graph.VertexID) graph.Weight {
	if s > d {
		s, d = d, s
	}
	return graph.Weight(1 + xrand.Hash64(uint64(s)<<32|uint64(d))%8)
}

// Params configures Generate. The zero value (plus a seed) is the
// standard configuration.
type Params struct {
	Seed       uint64
	MinN, MaxN int // initial vertex range bounds; defaults 24..72
	Ops        int // op count; 0 draws 10..26 from the seed
}

// directedSalt derives a schedule's directedness from its seed, apart
// from the generator's random stream: an undirected schedule is the one
// the same seed generated before directed schedules existed.
const directedSalt = 0x5851f42d4c957f2d

// Generate derives a schedule deterministically from p: the same Params
// always produce the identical schedule. About half the seeds make a
// directed schedule.
func Generate(p Params) *Schedule {
	if p.MinN <= 1 {
		p.MinN = 24
	}
	if p.MaxN < p.MinN {
		p.MaxN = p.MinN + 48
	}
	rng := xrand.New(p.Seed)
	n := p.MinN + rng.Intn(p.MaxN-p.MinN+1)
	nops := p.Ops
	if nops <= 0 {
		nops = 10 + rng.Intn(17)
	}
	directed := xrand.Hash64(p.Seed^directedSalt)&1 == 1
	s := &Schedule{Seed: p.Seed, N: n, Directed: directed, Ops: make([]Op, 0, nops)}
	g := &genState{rng: rng, n: n, problems: s.Problems(), directed: directed, present: make(map[[2]graph.VertexID]bool)}
	// A seed batch first, so the schedule starts from a connected-ish
	// graph instead of n isolated vertices.
	s.Ops = append(s.Ops, g.insertOp(OpInsert, 2*n))
	for len(s.Ops) < nops {
		s.Ops = append(s.Ops, g.nextOp())
	}
	return s
}

// genState tracks what the generator knows about the evolving graph so
// deletions target edges that exist and sources stay in range.
type genState struct {
	rng      *xrand.RNG
	n        int // current vertex range
	problems []string
	directed bool
	present  map[[2]graph.VertexID]bool
	edges    [][2]graph.VertexID // present edges, insertion-ordered
	muts     int                 // mutations so far (recorded versions = muts+1)
}

func (g *genState) pair() (graph.VertexID, graph.VertexID) {
	// Mostly in-range endpoints; occasionally one just past the current
	// range, exercising vertex growth in the mirror patch's growth region
	// and standing-state Grow.
	span := g.n
	if g.rng.Intn(10) == 0 {
		span = g.n + 2
	}
	for {
		a := graph.VertexID(g.rng.Intn(span))
		b := graph.VertexID(g.rng.Intn(span))
		if a == b {
			continue
		}
		if a > b && !g.directed {
			a, b = b, a
		}
		return a, b
	}
}

func (g *genState) insertOp(kind OpKind, size int) Op {
	if size < 1 {
		size = 1
	}
	batch := make([]graph.Edge, 0, size)
	seen := make(map[[2]graph.VertexID]bool, size)
	for i := 0; i < size; i++ {
		a, b := g.pair()
		key := [2]graph.VertexID{a, b}
		if seen[key] {
			continue
		}
		seen[key] = true
		batch = append(batch, graph.Edge{Src: a, Dst: b, W: WeightFor(a, b)})
		if int(b)+1 > g.n {
			g.n = int(b) + 1
		}
		if !g.present[key] {
			g.present[key] = true
			g.edges = append(g.edges, key)
		}
	}
	g.muts++
	return Op{Kind: kind, Edges: batch}
}

func (g *genState) deleteOp() Op {
	k := 1 + g.rng.Intn(4)
	if k > len(g.edges) {
		k = len(g.edges)
	}
	batch := make([]graph.Edge, 0, k)
	for i := 0; i < k; i++ {
		idx := g.rng.Intn(len(g.edges))
		key := g.edges[idx]
		g.edges = append(g.edges[:idx], g.edges[idx+1:]...)
		delete(g.present, key)
		batch = append(batch, graph.Edge{Src: key[0], Dst: key[1], W: WeightFor(key[0], key[1])})
	}
	g.muts++
	return Op{Kind: OpDelete, Edges: batch}
}

func (g *genState) problem() string { return g.problems[g.rng.Intn(len(g.problems))] }

func (g *genState) source() graph.VertexID { return graph.VertexID(g.rng.Intn(g.n)) }

func (g *genState) nextOp() Op {
	switch r := g.rng.Intn(100); {
	case r < 26:
		return g.insertOp(OpInsert, 1+g.rng.Intn(2*g.n))
	case r < 34:
		if len(g.edges) == 0 {
			return g.insertOp(OpInsert, g.n)
		}
		return g.deleteOp()
	case r < 52:
		return Op{Kind: OpQuery, Problem: g.problem(), Source: g.source()}
	case r < 58:
		return Op{Kind: OpQueryFull, Problem: g.problem(), Source: g.source()}
	case r < 66:
		return Op{Kind: OpQueryAt, Problem: g.problem(), Source: g.source(), VerIdx: g.rng.Intn(g.muts + 1)}
	case r < 74:
		return Op{Kind: OpCancel, Problem: g.problem(), Source: g.source(), Step: 1 + g.rng.Intn(6)}
	case r < 82:
		return Op{Kind: OpReaders, Problem: g.problem(), Source: g.source(), Readers: 2 + g.rng.Intn(3)}
	case r < 88:
		// The shares of two retired fault ops (letters e and x): the plain
		// full and Δ-query they wrapped, so a seed still draws the schedule
		// it always drew.
		return Op{Kind: OpQueryFull, Problem: g.problem(), Source: g.source()}
	case r < 94:
		return Op{Kind: OpQuery, Problem: g.problem(), Source: g.source()}
	default:
		return g.insertOp(OpInsert, 1+g.rng.Intn(g.n))
	}
}

// ---------------------------------------------------------------------
// Text encoding: one op per line, human-auditable, byte-for-byte
// deterministic. This is the repro format under testdata/repros and the
// fuzz target's input format.

const encodeHeader = "check/v1"

// Decode limits: a hostile (fuzzed) schedule must not allocate
// unboundedly or run for minutes.
const (
	maxN          = 512
	maxOps        = 64
	maxBatch      = 2048
	maxTotalEdges = 20000
	maxVertexID   = 1023
	maxStep       = 64
	maxReaders    = 8
	maxVerIdx     = 4095
)

// Encode renders the schedule in the textual repro format. A directed
// schedule's header carries the line "directed 1"; a header without it
// is undirected.
func Encode(s *Schedule) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\nseed %d\nn %d\n", encodeHeader, s.Seed, s.N)
	if s.Directed {
		b.WriteString("directed 1\n")
	}
	for _, op := range s.Ops {
		b.WriteString(op.Kind.String())
		switch op.Kind {
		case OpInsert, OpDelete:
			for _, e := range op.Edges {
				fmt.Fprintf(&b, " %d-%d-%d", e.Src, e.Dst, e.W)
			}
		case OpQuery, OpQueryFull:
			fmt.Fprintf(&b, " %s %d", op.Problem, op.Source)
		case OpQueryAt:
			fmt.Fprintf(&b, " %s %d %d", op.Problem, op.Source, op.VerIdx)
		case OpCancel:
			fmt.Fprintf(&b, " %s %d %d", op.Problem, op.Source, op.Step)
		case OpReaders:
			fmt.Fprintf(&b, " %s %d %d", op.Problem, op.Source, op.Readers)
		}
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// Decode parses the textual format, enforcing the fuzz-safety limits and
// canonicalizing batches: within one batch, later mentions of the same
// endpoint pair — unordered on an undirected schedule, ordered on a
// directed one — are dropped (the streaming graph is first-wins, so a
// duplicate with a different weight would make the shuffle variant
// order-sensitive for reasons that are not bugs). The letters of three
// since-removed fault ops decode as the plain op they ran: F, an insertion
// through a forced full rebuild, as an insertion, x, a query through a
// denied mirror pin, as a query, and e, a full query that retired the
// latest mirror mid-run, as a full query.
func Decode(data []byte) (*Schedule, error) {
	lines := strings.Split(string(data), "\n")
	if len(lines) < 3 || strings.TrimSpace(lines[0]) != encodeHeader {
		return nil, fmt.Errorf("check: missing %q header", encodeHeader)
	}
	s := &Schedule{}
	if _, err := fmt.Sscanf(lines[1], "seed %d", &s.Seed); err != nil {
		return nil, fmt.Errorf("check: bad seed line %q", lines[1])
	}
	if _, err := fmt.Sscanf(lines[2], "n %d", &s.N); err != nil {
		return nil, fmt.Errorf("check: bad n line %q", lines[2])
	}
	if s.N < 2 || s.N > maxN {
		return nil, fmt.Errorf("check: n %d out of [2, %d]", s.N, maxN)
	}
	body := lines[3:]
	if len(body) > 0 && strings.HasPrefix(strings.TrimSpace(body[0]), "directed") {
		var d int
		if _, err := fmt.Sscanf(body[0], "directed %d", &d); err != nil || d > 1 {
			return nil, fmt.Errorf("check: bad directed line %q", body[0])
		}
		s.Directed, body = d == 1, body[1:]
	}
	kindOf := map[string]OpKind{"F": OpInsert, "x": OpQuery, "e": OpQueryFull}
	for k, l := range letters {
		kindOf[l] = OpKind(k)
	}
	total := 0
	for _, line := range body {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if len(s.Ops) >= maxOps {
			return nil, fmt.Errorf("check: more than %d ops", maxOps)
		}
		fields := strings.Fields(line)
		kind, ok := kindOf[fields[0]]
		if !ok {
			return nil, fmt.Errorf("check: unknown op %q", fields[0])
		}
		op := Op{Kind: kind}
		switch kind {
		case OpInsert, OpDelete:
			if len(fields)-1 > maxBatch {
				return nil, fmt.Errorf("check: batch larger than %d", maxBatch)
			}
			seen := make(map[[2]graph.VertexID]bool, len(fields)-1)
			for _, f := range fields[1:] {
				e, err := parseEdge(f, s.Directed)
				if err != nil {
					return nil, err
				}
				key := [2]graph.VertexID{e.Src, e.Dst}
				if seen[key] {
					continue
				}
				seen[key] = true
				op.Edges = append(op.Edges, e)
			}
			total += len(op.Edges)
			if total > maxTotalEdges {
				return nil, fmt.Errorf("check: more than %d edges total", maxTotalEdges)
			}
		default:
			if len(fields) < 3 {
				return nil, fmt.Errorf("check: op %q needs a problem and source", line)
			}
			op.Problem = fields[1]
			if !slices.Contains(s.Problems(), op.Problem) {
				return nil, fmt.Errorf("check: unknown problem %q", op.Problem)
			}
			src, err := strconv.ParseUint(fields[2], 10, 32)
			if err != nil || src > maxVertexID {
				return nil, fmt.Errorf("check: bad source %q", fields[2])
			}
			op.Source = graph.VertexID(src)
			arg := 0
			if len(fields) > 3 {
				arg, err = strconv.Atoi(fields[3])
				if err != nil || arg < 0 {
					return nil, fmt.Errorf("check: bad argument %q", fields[3])
				}
			}
			switch kind {
			case OpQueryAt:
				if arg > maxVerIdx {
					return nil, fmt.Errorf("check: version index %d over %d", arg, maxVerIdx)
				}
				op.VerIdx = arg
			case OpCancel:
				if arg < 1 || arg > maxStep {
					return nil, fmt.Errorf("check: cancel step %d out of [1, %d]", arg, maxStep)
				}
				op.Step = arg
			case OpReaders:
				if arg < 1 || arg > maxReaders {
					return nil, fmt.Errorf("check: reader count %d out of [1, %d]", arg, maxReaders)
				}
				op.Readers = arg
			}
		}
		s.Ops = append(s.Ops, op)
	}
	return s, nil
}

// parseEdge parses "src-dst-w", canonicalizing src<dst unless directed
// and clamping everything into the fuzz-safe ranges.
func parseEdge(f string, directed bool) (graph.Edge, error) {
	parts := strings.Split(f, "-")
	if len(parts) != 3 {
		return graph.Edge{}, fmt.Errorf("check: bad edge %q (want src-dst-w)", f)
	}
	nums := make([]uint64, 3)
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 10, 32)
		if err != nil {
			return graph.Edge{}, fmt.Errorf("check: bad edge %q: %v", f, err)
		}
		nums[i] = v
	}
	if nums[0] > maxVertexID || nums[1] > maxVertexID {
		return graph.Edge{}, fmt.Errorf("check: edge %q endpoint over %d", f, maxVertexID)
	}
	if nums[0] == nums[1] {
		return graph.Edge{}, fmt.Errorf("check: self-loop %q", f)
	}
	s, d := graph.VertexID(nums[0]), graph.VertexID(nums[1])
	if s > d && !directed {
		s, d = d, s
	}
	// Bounded and nonzero, identity on 1..256 so generated schedules
	// round-trip exactly.
	w := graph.Weight(nums[2] % 257)
	if w == 0 {
		w = 1
	}
	return graph.Edge{Src: s, Dst: d, W: w}, nil
}

// kindsPresent returns the distinct op kinds in the schedule, sorted —
// the corpus-minimization predicate preserves this set.
func kindsPresent(ops []Op) []OpKind {
	set := make(map[OpKind]bool, numOpKinds)
	for _, op := range ops {
		set[op.Kind] = true
	}
	out := make([]OpKind, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
