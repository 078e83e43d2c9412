package check

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestReproCorpus replays every checked-in repro under testdata/repros.
// Each file is either a dd-minimized schedule from a bug the checker
// once caught (and which must stay fixed) or a coverage-distilled
// schedule that walks every op kind; all of them must pass cleanly.
//
// queryat-source-past-growth.txt pins the first bug this checker found:
// QueryAt with a source that joined the graph *after* the queried
// version panicked inside the engine instead of reporting
// ErrSourceOutOfRange, because the bounds check consulted the latest
// snapshot rather than the historical one.
func TestReproCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "repros", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 10 {
		t.Fatalf("repro corpus has %d schedules, want at least 10", len(files))
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			s, err := Decode(data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if v := CheckSchedule(context.Background(), s, Options{}); v.Diverged {
				t.Fatalf("repro diverges: %v", v.Reasons)
			}
		})
	}
}
