//go:build tripoline_ledger

package shard

import (
	"testing"

	"tripoline/internal/streamgraph"
)

// TestLedgerBuildOnMiss is the ledger half of TestBuildOnMiss: every
// private mirror a missed pin built, at S=1 and at S=4, was released by
// the reader that built it.
func TestLedgerBuildOnMiss(t *testing.T) {
	for _, shards := range []int{1, 4} {
		streamgraph.LedgerReset()
		exerciseBuildOnMiss(t, shards)
		for _, l := range streamgraph.LedgerReport() {
			t.Errorf("S=%d: leaked mirror v%d: %d pin(s) from %v", shards, l.Version, l.Pins, l.Sites)
		}
	}
}
