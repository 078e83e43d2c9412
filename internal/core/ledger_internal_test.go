//go:build tripoline_ledger

package core

import (
	"testing"

	"tripoline/internal/streamgraph"
)

// TestLedgerBuildOnMiss is the ledger half of TestBuildOnMiss: every pin
// a reader took after a missed retain, at S=1 and at S=4, was released.
func TestLedgerBuildOnMiss(t *testing.T) {
	for _, shards := range []int{1, 4} {
		streamgraph.LedgerReset()
		exerciseBuildOnMiss(t, shards)
		for _, l := range streamgraph.LedgerReport() {
			t.Errorf("S=%d: leaked mirror v%d: %d pin(s) from %v", shards, l.Version, l.Pins, l.Sites)
		}
	}
}
