package check

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCheckSchedule feeds arbitrary mutated schedule encodings through
// Decode and the full four-replay checker. The invariant is twofold:
// malformed input must be rejected by Decode (never panic the replayer),
// and any input Decode accepts describes a legal workload whose replays
// must agree — a divergence here is a real engine/core/streamgraph bug,
// not a fuzz artifact, which is exactly why this target exists.
func FuzzCheckSchedule(f *testing.F) {
	for seed := uint64(1); seed <= 5; seed++ {
		f.Add(Encode(Generate(Params{Seed: seed})))
	}
	files, err := filepath.Glob(filepath.Join("testdata", "repros", "*.txt"))
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		if v := CheckSchedule(context.Background(), s, Options{}); v.Diverged {
			t.Fatalf("decoded schedule diverges: %v", v.Reasons)
		}
	})
}
