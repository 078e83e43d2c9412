package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"tripoline/internal/gen"
	"tripoline/internal/graph"
	"tripoline/internal/xrand"
)

type opKind uint8

const (
	opInsert opKind = iota // apply edges as an insert batch
	opDelete               // apply edges as a deletion batch
	opDelta                // Δ-query on a source never asked before
	opFull                 // from-scratch query paired with the opDelta just before it
	opRepeat               // Δ-query on a source already asked at the current version
)

var opKindNames = [...]string{"insert", "delete", "delta", "full", "repeat"}

func (k opKind) String() string { return opKindNames[k] }

// op is one step of the closed loop. The script fixes every op before
// the run starts, so the op order, the version sequence and the counts
// are a function of (workload, seed) alone.
type op struct {
	kind    opKind
	problem string
	source  graph.VertexID
	edges   []graph.Edge
}

type subscription struct {
	problem string
	source  graph.VertexID
}

// traceExtras is the number of probe batches, deletions and
// subscriptions the traced run holds in reserve for the operation
// classes a workload's own script does not contain (see probe.go).
const traceExtras = 3

type script struct {
	n       int
	initial []graph.Edge
	rounds  [][]op // rounds[0] is the warm-up round
	subs    []subscription

	// Reserved for the traced run: sources for the layer probes (never
	// used by the script itself, so probes cannot turn a script query
	// into a cache hit) and mutations for the end-of-run extras.
	probeSources []graph.VertexID
	extraInserts [][]graph.Edge
	extraDeletes [][]graph.Edge
}

// buildScript derives every input of a run from the seed.
func buildScript(w workload, seed uint64) (*script, error) {
	cfg := gen.Config{LogN: w.logN, AvgDegree: w.degree, Directed: true, Seed: seed}
	stream := gen.MakeStream(cfg.N(), gen.RMAT(cfg), true, 0.6, w.batchEdges, seed)
	sc := &script{n: stream.N, initial: stream.Initial}
	rng := xrand.New(seed ^ 0x7419_0b5c_2e11_d3a7)

	// Sources are vertices with out-degree > 2 in the preloaded graph,
	// so no query degenerates to an isolated source.
	deg := make([]int32, sc.n)
	for _, e := range sc.initial {
		deg[e.Src]++
	}
	var eligible []graph.VertexID
	for v, d := range deg {
		if d > 2 {
			eligible = append(eligible, graph.VertexID(v))
		}
	}
	rng.Shuffle(len(eligible), func(i, j int) { eligible[i], eligible[j] = eligible[j], eligible[i] })
	nRounds := rounds + 1
	nProbes := nRounds * w.slots() // the traced run probes once per mutation slot
	need := nRounds*w.deltas + nProbes + w.subs + traceExtras
	if len(eligible) < need {
		return nil, fmt.Errorf("workload %s: %d sources needed, only %d vertices have out-degree > 2", w.name, need, len(eligible))
	}
	take := func(k int) []graph.VertexID {
		out := eligible[:k]
		eligible = eligible[k:]
		return out
	}

	needBatches := nRounds*w.batches + traceExtras
	if len(stream.Batches) < needBatches || len(stream.Batches[needBatches-1]) < w.batchEdges {
		return nil, fmt.Errorf("workload %s: %d full insert batches needed, held-out stream has %d", w.name, needBatches, len(stream.Batches))
	}
	deletions := sampleDeletions(rng, sc.initial, nRounds+traceExtras, max(w.deleteEdges, 100))

	for r := 0; r < nRounds; r++ {
		sc.rounds = append(sc.rounds, buildRound(w, rng, take(w.deltas), stream.Batches[r*w.batches:(r+1)*w.batches], deletions[r]))
	}
	sc.probeSources = take(nProbes + traceExtras)
	sc.extraInserts = stream.Batches[nRounds*w.batches : needBatches]
	sc.extraDeletes = deletions[nRounds:]

	// Subscriptions rotate over the problems that support them (Radii
	// cannot batch-refresh).
	var subProblems []string
	for _, p := range w.problems {
		if p != "Radii" {
			subProblems = append(subProblems, p)
		}
	}
	for i, u := range take(w.subs) {
		sc.subs = append(sc.subs, subscription{problem: subProblems[i%len(subProblems)], source: u})
	}
	return sc, nil
}

// sampleDeletions draws k disjoint deletion batches of size edges each
// from the preloaded edges, so every deleted arc exists when its batch
// is applied (RMAT duplicates aside, which delete as no-ops).
func sampleDeletions(rng *xrand.RNG, initial []graph.Edge, k, size int) [][]graph.Edge {
	seen := make(map[int]bool, k*size)
	out := make([][]graph.Edge, k)
	for i := range out {
		for len(out[i]) < size {
			j := rng.Intn(len(initial))
			if !seen[j] {
				seen[j] = true
				out[i] = append(out[i], initial[j])
			}
		}
	}
	return out
}

// buildRound lays out one round: the mutation slots in order (the
// deletion batch, when the workload has one, sits in the middle), each
// followed by its even share of the round's Δ-queries, so every query
// runs against a version at most one slot old. Queries rotate over the
// queried problems, so they come in blocks of one per problem; whole
// blocks are paired with full queries, evenly over the round, so every
// problem gets the same share of the pairs. Repeats are spread evenly
// over the round's queries.
func buildRound(w workload, rng *xrand.RNG, sources []graph.VertexID, batches [][]graph.Edge, deletion []graph.Edge) []op {
	var ops []op
	slots, problems := w.slots(), w.queryProblems()
	nextBatch := 0
	for s := 0; s < slots; s++ {
		if w.deleteEdges > 0 && s == slots/2 {
			ops = append(ops, op{kind: opDelete, edges: deletion[:w.deleteEdges]})
		} else {
			ops = append(ops, op{kind: opInsert, edges: batches[nextBatch]})
			nextBatch++
		}
		first := s * w.deltas / slots
		for q := first; q < (s+1)*w.deltas/slots; q++ {
			d := op{kind: opDelta, problem: problems[q%len(problems)], source: sources[q]}
			ops = append(ops, d)
			if evenly(q/len(problems), w.fulls/len(problems), w.deltas/len(problems)) {
				d.kind = opFull
				ops = append(ops, d)
			}
			if evenly(q, w.repeats, w.deltas) {
				again := first + rng.Intn(q-first+1)
				ops = append(ops, op{kind: opRepeat, problem: problems[again%len(problems)], source: sources[again]})
			}
		}
	}
	return ops
}

// evenly reports whether index q of n carries one of k evenly spread
// marks (exactly k of the n indices do).
func evenly(q, k, n int) bool { return (q+1)*k/n > q*k/n }

// hash fingerprints the whole script: two runs with equal hashes were
// handed identical inputs in identical order.
func (sc *script) hash() uint64 {
	h := fnv.New64a()
	var buf [12]byte
	edges := func(es []graph.Edge) {
		for _, e := range es {
			binary.LittleEndian.PutUint32(buf[0:], uint32(e.Src))
			binary.LittleEndian.PutUint32(buf[4:], uint32(e.Dst))
			binary.LittleEndian.PutUint32(buf[8:], uint32(e.W))
			h.Write(buf[:])
		}
	}
	edges(sc.initial)
	for _, round := range sc.rounds {
		for _, o := range round {
			h.Write([]byte{byte(o.kind)})
			h.Write([]byte(o.problem))
			binary.LittleEndian.PutUint32(buf[0:], uint32(o.source))
			h.Write(buf[:4])
			edges(o.edges)
		}
	}
	for _, s := range sc.subs {
		h.Write([]byte(s.problem))
		binary.LittleEndian.PutUint32(buf[0:], uint32(s.source))
		h.Write(buf[:4])
	}
	return h.Sum64()
}

// counts tallies a round's ops by kind.
func counts(round []op) map[opKind]int {
	c := make(map[opKind]int)
	for _, o := range round {
		c[o.kind]++
	}
	return c
}
