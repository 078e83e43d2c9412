package main

import (
	"testing"

	"tripoline/internal/graph"
)

// tiny shrinks a workload to a LogN=10 graph and a handful of ops per
// round, keeping its shape (problems, stack, slots, repeats,
// deletions, subscriptions).
func tiny(w workload) workload {
	w.logN, w.degree = 10, 16
	w.deltas, w.fulls, w.batches, w.batchEdges = 12, 6, 2, 200
	if w.repeats > 0 {
		w.repeats = 3
	}
	if w.deleteEdges > 0 {
		w.deleteEdges = 20
	}
	if w.subs > 0 {
		w.subs = 4
	}
	return w
}

func TestScriptDeterministicInSeed(t *testing.T) {
	for _, w := range workloads {
		w = tiny(w)
		a, err := buildScript(w, 7)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, _ := buildScript(w, 7)
		c, _ := buildScript(w, 8)
		if a.hash() != b.hash() {
			t.Errorf("%s: same seed gave different scripts", w.name)
		}
		if a.hash() == c.hash() {
			t.Errorf("%s: different seeds gave the same script", w.name)
		}
	}
}

func TestScriptShape(t *testing.T) {
	for _, w := range workloads {
		w = tiny(w)
		sc, err := buildScript(w, 3)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(sc.rounds) != rounds+1 {
			t.Fatalf("%s: %d rounds, want warm-up + %d", w.name, len(sc.rounds), rounds)
		}
		asked := make(map[graph.VertexID]bool)
		for r, round := range sc.rounds {
			c := counts(round)
			wantDel := 0
			if w.deleteEdges > 0 {
				wantDel = 1
			}
			if c[opDelta] != w.deltas || c[opFull] != w.fulls || c[opRepeat] != w.repeats ||
				c[opInsert] != w.batches || c[opDelete] != wantDel {
				t.Errorf("%s round %d: op counts %v", w.name, r, c)
			}
			if k := round[0].kind; k != opInsert {
				t.Errorf("%s round %d starts with %s, want a mutation so queries see a fresh version", w.name, r, k)
			}
			// Within a mutation slot: every full query follows the Δ query
			// it is paired with; every repeat re-asks a (problem, source)
			// already asked in the slot, i.e. at the current version.
			type key struct {
				problem string
				source  graph.VertexID
			}
			slot := make(map[key]bool)
			pairs := make(map[string]int)
			for i, o := range round {
				switch o.kind {
				case opInsert, opDelete:
					slot = make(map[key]bool)
					if len(o.edges) == 0 {
						t.Errorf("%s round %d: empty %s batch", w.name, r, o.kind)
					}
				case opDelta:
					if asked[o.source] {
						t.Errorf("%s round %d: source %d asked twice", w.name, r, o.source)
					}
					asked[o.source] = true
					slot[key{o.problem, o.source}] = true
				case opFull:
					if p := round[i-1]; p.kind != opDelta || p.problem != o.problem || p.source != o.source {
						t.Errorf("%s round %d op %d: full query is not paired with the Δ query before it", w.name, r, i)
					}
					pairs[o.problem]++
				case opRepeat:
					if !slot[key{o.problem, o.source}] {
						t.Errorf("%s round %d op %d: repeat of a source not asked at this version", w.name, r, i)
					}
				}
			}
			// Pairs are spread over the rotation's entries evenly (a problem
			// named twice gets twice the share).
			share := make(map[string]int)
			for _, p := range w.queryProblems() {
				share[p] += w.fulls / len(w.queryProblems())
			}
			for p, want := range share {
				if pairs[p] != want {
					t.Errorf("%s round %d: pairs per problem %v, want %v", w.name, r, pairs, share)
				}
			}
		}
		for _, u := range sc.probeSources {
			if asked[u] {
				t.Errorf("%s: probe source %d is also a script source", w.name, u)
			}
		}
		if len(sc.subs) != w.subs {
			t.Errorf("%s: %d subscriptions, want %d", w.name, len(sc.subs), w.subs)
		}
	}
}

func TestScaledKeepsFloors(t *testing.T) {
	for _, w := range workloads {
		for _, seconds := range []int{1, 5, nominalSeconds, 60} {
			s := w.scaled(seconds)
			if s.deltas < floorDeltas || s.fulls < floorFulls || s.batches < floorBatches {
				t.Errorf("%s at %d s: %d Δ %d full %d batches per round, below the floors", w.name, seconds, s.deltas, s.fulls, s.batches)
			}
			if seconds == nominalSeconds && (s.deltas != w.deltas || s.fulls != w.fulls || s.repeats != w.repeats) {
				t.Errorf("%s: nominal seconds changed the counts", w.name)
			}
			if w.repeats > 0 && s.repeats*w.deltas != w.repeats*s.deltas {
				t.Errorf("%s at %d s: repeat share %d/%d is not the nominal %d/%d", w.name, seconds, s.repeats, s.deltas, w.repeats, w.deltas)
			}
		}
	}
}

func TestEvenly(t *testing.T) {
	for _, c := range []struct{ k, n int }{{0, 10}, {3, 12}, {40, 240}, {30, 120}, {7, 7}} {
		got := 0
		for q := 0; q < c.n; q++ {
			if evenly(q, c.k, c.n) {
				got++
			}
		}
		if got != c.k {
			t.Errorf("evenly marks %d of %d, want %d", got, c.n, c.k)
		}
	}
}

// The warm-up runs the first half of a round's mutation slots, rounded
// up, so a workload with a deletion slot (the middle one) warms it too.
func TestWarmUpIsHalfARound(t *testing.T) {
	for _, w := range workloads {
		w = tiny(w)
		sc, err := buildScript(w, 3)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		c := counts(warmUp(sc.rounds[0]))
		if got, want := c[opInsert]+c[opDelete], (w.slots()+1)/2; got != want {
			t.Errorf("%s: warm-up has %d mutation slots, want %d", w.name, got, want)
		}
		if w.deleteEdges > 0 && c[opDelete] != 1 {
			t.Errorf("%s: warm-up leaves the deletion path cold", w.name)
		}
		if c[opDelta] == 0 || c[opDelta] >= w.deltas {
			t.Errorf("%s: warm-up runs %d of the round's %d queries", w.name, c[opDelta], w.deltas)
		}
	}
}
