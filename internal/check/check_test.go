package check

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		a := Generate(Params{Seed: seed})
		b := Generate(Params{Seed: seed})
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two generations differ", seed)
		}
		if string(Encode(a)) != string(Encode(b)) {
			t.Fatalf("seed %d: encodings differ", seed)
		}
	}
}

func TestGenerateStartsWithSeedInsert(t *testing.T) {
	s := Generate(Params{Seed: 42})
	if len(s.Ops) == 0 || s.Ops[0].Kind != OpInsert || len(s.Ops[0].Edges) == 0 {
		t.Fatalf("schedule does not open with a seed insert: %+v", s.Ops[0])
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		s := Generate(Params{Seed: seed})
		got, err := Decode(Encode(s))
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if !reflect.DeepEqual(s, got) {
			t.Fatalf("seed %d: round trip changed the schedule\nwant %+v\ngot  %+v", seed, s, got)
		}
	}
}

func TestDecodeRejectsMalformedInput(t *testing.T) {
	cases := []string{
		"",
		"not-the-header\nseed 1\nn 4\n",
		"check/v1\nseed x\nn 4\n",
		"check/v1\nseed 1\nn 1\n",               // n below minimum
		"check/v1\nseed 1\nn 9999\n",            // n above maximum
		"check/v1\nseed 1\nn 4\nz 0 0\n",        // unknown op
		"check/v1\nseed 1\nn 4\ni 1-1-1\n",      // self-loop
		"check/v1\nseed 1\nn 4\ni 1-2\n",        // malformed edge
		"check/v1\nseed 1\nn 4\nq Nope 0\n",     // unknown problem
		"check/v1\nseed 1\nn 4\nq SSNSP 2000\n", // source over limit
		"check/v1\nseed 1\nn 4\nc SSNSP 0 0\n",  // cancel step below 1
		"check/v1\nseed 1\nn 4\nr SSNSP 0 99\n", // too many readers
	}
	for _, in := range cases {
		if _, err := Decode([]byte(in)); err == nil {
			t.Errorf("Decode(%q) accepted malformed input", in)
		}
	}
}

func TestDecodeDedupesWithinBatch(t *testing.T) {
	s, err := Decode([]byte("check/v1\nseed 1\nn 4\ni 0-1-3 1-0-7 0-1-5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Ops[0].Edges) != 1 {
		t.Fatalf("duplicate unordered pairs survived: %+v", s.Ops[0].Edges)
	}
	if s.Ops[0].Edges[0].W != 3 { // first mention wins
		t.Fatalf("kept weight %d, want the first mention's", s.Ops[0].Edges[0].W)
	}
}

func TestCleanSchedulesPass(t *testing.T) {
	n := 30
	if testing.Short() {
		n = 10
	}
	RunMany(context.Background(), n, 11, Options{}, func(i int, v Verdict) {
		if v.Diverged {
			t.Errorf("schedule %d (seed %d) diverged: %v", i, v.Seed, v.Reasons)
		}
	})
}

func TestVerdictDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		s := Generate(Params{Seed: seed})
		a := CheckSchedule(context.Background(), s, Options{})
		b := CheckSchedule(context.Background(), s, Options{})
		// The *Fired counters and Verified depend on engine superstep
		// counts and are explicitly informational; everything else must be
		// identical.
		a.Faults.CancelsFired, b.Faults.CancelsFired = 0, 0
		a.Verified, b.Verified = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: verdicts differ\n%+v\n%+v", seed, a, b)
		}
	}
}

func TestFaultModesAllExercised(t *testing.T) {
	sum := RunMany(context.Background(), 20, 1, Options{}, nil)
	f := sum.Faults
	if f.Cancels == 0 {
		t.Fatalf("a fault mode was never attempted: %+v", f)
	}
	if f.CancelsFired == 0 {
		t.Fatalf("no cancellation ever fired: %+v", f)
	}
}

// TestCompareObsCatchesDivergence is the cross-replay comparison's
// self-test: replays of two different schedules must be flagged — if
// compareObs cannot see that, it cannot see a variant that drifts from
// the base either.
func TestCompareObsCatchesDivergence(t *testing.T) {
	ra := replay(context.Background(), Generate(Params{Seed: 1}), variant{name: "base"})
	rb := replay(context.Background(), Generate(Params{Seed: 2}), variant{name: "other"})
	if reasons := compareObs(ra, rb); len(reasons) == 0 {
		t.Fatal("comparing replays of different schedules reported no divergence")
	}
}

// TestCorruptDeltaCaughtAndMinimized is the checker's acceptance
// self-test: with the skew seam armed, every delta-patched mirror build
// has one arc silently off by one, the divergence must be detected, and
// dd-minimization must shrink the schedule to a handful of ops.
func TestCorruptDeltaCaughtAndMinimized(t *testing.T) {
	opts := Options{CorruptDelta: true}
	caught := 0
	for seed := uint64(1); seed <= 4; seed++ {
		s := Generate(Params{Seed: seed})
		v := CheckSchedule(context.Background(), s, opts)
		if !v.Diverged {
			continue
		}
		caught++
		min := Shrink(context.Background(), s, opts)
		if !CheckSchedule(context.Background(), min, opts).Diverged {
			t.Fatalf("seed %d: shrunk schedule no longer diverges", seed)
		}
		if len(min.Ops) > 12 {
			t.Fatalf("seed %d: shrunk to %d ops, want <= 12", seed, len(min.Ops))
		}
		if _, err := Decode(Encode(min)); err != nil {
			t.Fatalf("seed %d: shrunk repro does not round-trip: %v", seed, err)
		}
	}
	if caught == 0 {
		t.Fatal("skewed delta patches were never detected — the checker is blind")
	}
}

// TestCorruptTransposeCaughtAndMinimized is the transpose self-test: with
// the transpose skew seam armed, every publish puts one arc of the
// transpose off by one, which only a directed schedule's reversed standing
// queries read; the divergence must be detected and shrink to a handful
// of ops that still describe a directed graph.
func TestCorruptTransposeCaughtAndMinimized(t *testing.T) {
	opts := Options{CorruptTranspose: true}
	caught := 0
	for seed := uint64(1); seed <= 6 && caught < 2; seed++ {
		s := Generate(Params{Seed: seed})
		v := CheckSchedule(context.Background(), s, opts)
		if !v.Diverged {
			continue
		}
		if !s.Directed {
			t.Fatalf("seed %d: an undirected schedule reads no transpose, yet diverged: %v", seed, v.Reasons)
		}
		caught++
		min := Shrink(context.Background(), s, opts)
		if !min.Directed || !CheckSchedule(context.Background(), min, opts).Diverged {
			t.Fatalf("seed %d: shrunk schedule no longer diverges on a directed graph", seed)
		}
		if len(min.Ops) > 12 {
			t.Fatalf("seed %d: shrunk to %d ops, want <= 12", seed, len(min.Ops))
		}
		if back, err := Decode(Encode(min)); err != nil || !back.Directed {
			t.Fatalf("seed %d: shrunk repro does not round-trip as directed: %v", seed, err)
		}
	}
	if caught == 0 {
		t.Fatal("skewed transposes were never detected — the checker is blind to them")
	}
}

// TestGenerateDrawsDirectedness: about half the seeds make a directed
// schedule, whose edges keep their orientation and whose problems leave
// out CC; an undirected schedule's header has no directed line, and the
// retired letters F, x and e decode as an insertion, a Δ-query and a full
// query.
func TestGenerateDrawsDirectedness(t *testing.T) {
	directed, reversed := 0, 0
	for seed := uint64(0); seed < 40; seed++ {
		s := Generate(Params{Seed: seed})
		if !s.Directed {
			if strings.Contains(string(Encode(s)), "directed") {
				t.Fatalf("seed %d: undirected schedule's header names directedness", seed)
			}
			continue
		}
		directed++
		for _, p := range s.Problems() {
			if p == "CC" {
				t.Fatalf("seed %d: a directed schedule enables CC", seed)
			}
		}
		for _, op := range s.Ops {
			for _, e := range op.Edges {
				if e.Src > e.Dst {
					reversed++
				}
			}
		}
	}
	if directed < 10 || directed > 30 {
		t.Fatalf("%d of 40 schedules directed, want about half", directed)
	}
	if reversed == 0 {
		t.Fatal("directed schedules never hold an arc from a higher to a lower vertex")
	}
	s, err := Decode([]byte("check/v1\nseed 1\nn 4\nF 0-1-2 1-2-3\nx BFS 0\ne SSSP 1\n"))
	if err != nil || s.Directed || len(s.Ops) != 3 || s.Ops[0].Kind != OpInsert || len(s.Ops[0].Edges) != 2 {
		t.Fatalf("F did not decode as an undirected insertion: %+v, %v", s, err)
	}
	if op := s.Ops[1]; op.Kind != OpQuery || op.Problem != "BFS" || op.Source != 0 {
		t.Fatalf("x did not decode as a Δ-query: %+v", op)
	}
	if op := s.Ops[2]; op.Kind != OpQueryFull || op.Problem != "SSSP" || op.Source != 1 {
		t.Fatalf("e did not decode as a full query: %+v", op)
	}
	if _, err := Decode([]byte("check/v1\nseed 1\nn 4\ndirected 1\nq CC 0\n")); err == nil {
		t.Fatal("CC decoded on a directed schedule")
	}
}

func TestShrinkCoverageKeepsKinds(t *testing.T) {
	s := Generate(Params{Seed: 3})
	min := ShrinkCoverage(s)
	if got, want := kindsPresent(min.Ops), kindsPresent(s.Ops); !reflect.DeepEqual(got, want) {
		t.Fatalf("coverage shrink lost op kinds: %v -> %v", want, got)
	}
	if len(min.Ops) > len(s.Ops) {
		t.Fatalf("coverage shrink grew the schedule: %d -> %d", len(s.Ops), len(min.Ops))
	}
	if CheckSchedule(context.Background(), min, Options{}).Diverged {
		t.Fatal("coverage-shrunk schedule diverges")
	}
}

func TestStepCtxCancelsAfterConsults(t *testing.T) {
	ctx := newCancelCtx(3)
	for i := 0; i < 3; i++ {
		if err := ctx.Err(); err != nil {
			t.Fatalf("consult %d: premature cancellation: %v", i, err)
		}
	}
	if err := ctx.Err(); err != context.Canceled {
		t.Fatalf("consult 4: got %v, want context.Canceled", err)
	}
	// Sticky from then on.
	if err := ctx.Err(); err != context.Canceled {
		t.Fatalf("consult 5: got %v, want context.Canceled", err)
	}
	if ctx.Done() != nil {
		t.Fatal("stepCtx must not expose a Done channel")
	}
}
