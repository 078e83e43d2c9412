package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tripoline/internal/check"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestCorruptDelta: the self-test flag arms the replays, so the run
// diverges (exit 1), and -repro-dir writes a shrunk repro that decodes.
func TestCorruptDelta(t *testing.T) {
	dir := t.TempDir()
	code, _, stderr := runCLI(t, "-corrupt-delta", "-schedules", "3", "-seed", "1", "-repro-dir", dir)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr %q)", code, stderr)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.txt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no repro written (err %v)", err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := check.Decode(data); err != nil {
		t.Fatalf("repro does not decode: %v", err)
	}
}

// TestCorruptTranspose: the transpose self-test diverges (exit 1) within
// five schedules, and -repro-dir writes a shrunk repro that decodes as a
// directed schedule.
func TestCorruptTranspose(t *testing.T) {
	dir := t.TempDir()
	code, _, stderr := runCLI(t, "-corrupt-transpose", "-schedules", "5", "-repro-dir", dir)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr %q)", code, stderr)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.txt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no repro written (err %v)", err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if s, err := check.Decode(data); err != nil || !s.Directed {
		t.Fatalf("repro does not decode as a directed schedule: %v", err)
	}
	if code, _, _ := runCLI(t, "-corrupt-transpose", "-serving", "-schedules", "1"); code != 2 {
		t.Fatalf("-corrupt-transpose with -serving: exit = %d, want 2", code)
	}
}

// TestCorruptDeltaUnderServing: the serving replay has no store seam to
// arm, so the combination is a usage error (exit 2) that says why.
func TestCorruptDeltaUnderServing(t *testing.T) {
	code, _, stderr := runCLI(t, "-corrupt-delta", "-serving", "-schedules", "3", "-seed", "1")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "-serving") {
		t.Errorf("stderr should name the conflicting flag:\n%s", stderr)
	}
}

// TestCleanRuns: a clean run exits 0 on every path, and -json carries
// the counters of the path taken.
func TestCleanRuns(t *testing.T) {
	for _, args := range [][]string{
		{"-schedules", "3", "-seed", "1", "-json"},
		{"-serving", "-schedules", "3", "-seed", "1", "-json"},
	} {
		code, stdout, stderr := runCLI(t, args...)
		if code != 0 {
			t.Fatalf("%v: exit = %d, want 0 (stderr %q)", args, code, stderr)
		}
		var sum check.Summary
		if err := json.Unmarshal([]byte(stdout), &sum); err != nil {
			t.Fatalf("%v: parsing -json output: %v\n%s", args, err, stdout)
		}
		if sum.Schedules != 3 || sum.Verified == 0 {
			t.Errorf("%v: summary %+v checked nothing", args, sum)
		}
		if args[0] == "-serving" && sum.Frames == 0 {
			t.Errorf("%v: serving run pushed no frames: %+v", args, sum)
		}
	}
}

// TestBadFlag: an unknown flag is a usage error.
func TestBadFlag(t *testing.T) {
	if code, _, _ := runCLI(t, "-nope"); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}
