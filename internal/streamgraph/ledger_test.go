//go:build tripoline_ledger

package streamgraph_test

import (
	"strings"
	"testing"

	"tripoline/internal/gen"
	"tripoline/internal/streamgraph"
)

// TestLedgerAccounting pins the ledger's semantics: an un-retired owner
// reference is not a leak, an unmatched Retain is (with its call site
// in the report), and a drained mirror closes its account.
func TestLedgerAccounting(t *testing.T) {
	if !streamgraph.LedgerEnabled() {
		t.Fatal("test built without -tags tripoline_ledger")
	}
	streamgraph.LedgerReset()

	cfg := gen.Config{Name: "ledger", LogN: 8, AvgDegree: 6, Directed: true, Seed: 3}
	g := streamgraph.FromEdges(cfg.N(), gen.RMAT(cfg), true)
	snap := g.Acquire()
	f := snap.Flatten()

	if leaks := streamgraph.LedgerReport(); len(leaks) != 0 {
		t.Fatalf("owner-only mirror reported as leak: %+v", leaks)
	}

	if !f.Retain() {
		t.Fatal("Retain on live mirror failed")
	}
	leaks := streamgraph.LedgerReport()
	if len(leaks) != 1 || leaks[0].Pins != 1 {
		t.Fatalf("after unmatched Retain: report = %+v, want one 1-pin leak", leaks)
	}
	if len(leaks[0].Sites) != 1 || !strings.Contains(leaks[0].Sites[0], "ledger_test.go") {
		t.Fatalf("leak site = %v, want this test file", leaks[0].Sites)
	}
	if leaks[0].Version != snap.Version() {
		t.Fatalf("leak version = %d, want %d", leaks[0].Version, snap.Version())
	}

	f.Release()
	if leaks := streamgraph.LedgerReport(); len(leaks) != 0 {
		t.Fatalf("balanced mirror still reported: %+v", leaks)
	}

	// Retire the owner while a reader still pins: the pin alone is the
	// leak; releasing it drains the mirror and closes the account.
	if !f.Retain() {
		t.Fatal("re-Retain failed")
	}
	snap.RetireFlat()
	leaks = streamgraph.LedgerReport()
	if len(leaks) != 1 || leaks[0].Pins != 1 {
		t.Fatalf("retired-with-pin: report = %+v, want one 1-pin leak", leaks)
	}
	f.Release()
	if leaks := streamgraph.LedgerReport(); len(leaks) != 0 {
		t.Fatalf("drained mirror still reported: %+v", leaks)
	}
}

// TestLedgerHolders: the Graph's reference on its latest mirror and a
// holder's (Hold) are not leaks, before or after a later version
// supersedes the mirror; an unmatched Retain beside them is, and Unhold
// with the snapshot retired drains the mirror.
func TestLedgerHolders(t *testing.T) {
	streamgraph.LedgerReset()
	cfg := gen.Config{Name: "ledger2", LogN: 8, AvgDegree: 6, Directed: false, Seed: 4}
	g := streamgraph.FromEdges(cfg.N(), gen.RMAT(cfg), true)
	snap := g.Acquire()
	f := snap.Flatten()
	f.Hold()
	if leaks := streamgraph.LedgerReport(); len(leaks) != 0 {
		t.Fatalf("held latest mirror reported: %+v", leaks)
	}
	g.InsertEdges(gen.RMAT(cfg)[:10])
	snap.RetireFlat()
	if leaks := streamgraph.LedgerReport(); len(leaks) != 0 {
		t.Fatalf("held superseded mirror reported: %+v", leaks)
	}
	if !f.Retain() {
		t.Fatal("Retain on a held mirror failed")
	}
	if leaks := streamgraph.LedgerReport(); len(leaks) != 1 || leaks[0].Pins != 1 {
		t.Fatalf("unmatched Retain beside a hold: report = %+v, want one 1-pin leak", leaks)
	}
	f.Release()
	f.Unhold()
	if f.Retain() {
		t.Fatal("mirror still retainable after its last reference dropped")
	}
	if leaks := streamgraph.LedgerReport(); len(leaks) != 0 {
		t.Fatalf("drained mirror still reported: %+v", leaks)
	}
}
