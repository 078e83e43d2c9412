//go:build tripoline_ledger

// The refcount ledger is the dynamic half of the ownership cross-check:
// refbalance proves statically that every pin is discharged; builds
// tagged tripoline_ledger record every Retain/Release with its call
// site so tests can assert at teardown that the two accounts agree.
// Any divergence is either a lint false negative or a real leak — both
// worth failing a test over. Untagged builds compile the no-op stubs in
// ledger_off.go and carry no overhead.
package streamgraph

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// ledgerOn reports (to LedgerEnabled) that this build carries the
// ledger.
const ledgerOn = true

// ledgerRec is the live account of one mirror: its current reference
// count as the ledger saw it, whether a snapshot's owner reference is
// among them (dropped by RetireFlat, never there on a caller-owned
// mirror), and the net outstanding Retain sites.
type ledgerRec struct {
	version      uint64
	live         int64
	ownerDropped bool
	retains      map[string]int
}

var (
	ledgerMu   sync.Mutex
	ledgerLive = map[*Flat]*ledgerRec{}
)

// ledgerSite names the first caller frame outside the mirror/ledger
// implementation — the code that actually took or dropped the pin.
func ledgerSite() string {
	var pcs [8]uintptr
	n := runtime.Callers(3, pcs[:])
	frames := runtime.CallersFrames(pcs[:n])
	for {
		fr, more := frames.Next()
		if fr.File != "" && !strings.HasSuffix(fr.File, "/flat.go") && !strings.HasSuffix(fr.File, "/ledger.go") {
			return fmt.Sprintf("%s:%d", fr.File, fr.Line)
		}
		if !more {
			return "unknown"
		}
	}
}

func ledgerBuilt(f *Flat) {
	ledgerMu.Lock()
	defer ledgerMu.Unlock()
	ledgerLive[f] = &ledgerRec{version: f.version, live: 1, retains: map[string]int{}}
}

// ledgerPrivate marks a caller-owned mirror (MaterializeFlat[From]): no
// snapshot owns a reference, so the one it was born with is its builder's
// pin — outstanding, like any Retain, until the builder releases it.
func ledgerPrivate(f *Flat) {
	site := ledgerSite()
	ledgerMu.Lock()
	defer ledgerMu.Unlock()
	if r := ledgerLive[f]; r != nil {
		r.ownerDropped = true
		r.retains[site]++
	}
}

func ledgerRetain(f *Flat) {
	site := ledgerSite()
	ledgerMu.Lock()
	defer ledgerMu.Unlock()
	if r := ledgerLive[f]; r != nil {
		r.live++
		r.retains[site]++
	}
}

func ledgerRelease(f *Flat) {
	ledgerMu.Lock()
	defer ledgerMu.Unlock()
	if r := ledgerLive[f]; r != nil {
		r.live--
		if r.live <= 0 {
			delete(ledgerLive, f) // fully drained: account closed
		}
	}
}

func ledgerRetire(f *Flat) {
	ledgerMu.Lock()
	defer ledgerMu.Unlock()
	if r := ledgerLive[f]; r != nil {
		r.ownerDropped = true
	}
}

// LedgerReport returns the mirrors holding reader pins beyond any
// legitimate un-retired owner reference, oldest version first. An empty
// report at teardown (after a final batch has advanced the version)
// means every Retain found its Release and every caller-owned mirror was
// released by its builder.
func LedgerReport() []LedgerLeak {
	ledgerMu.Lock()
	defer ledgerMu.Unlock()
	var out []LedgerLeak
	for _, r := range ledgerLive {
		pins := r.live
		if !r.ownerDropped {
			pins-- // the snapshot's own reference is not a leak
		}
		if pins <= 0 {
			continue
		}
		sites := make([]string, 0, len(r.retains))
		for s, c := range r.retains {
			sites = append(sites, fmt.Sprintf("%s (%d)", s, c))
		}
		sort.Strings(sites)
		out = append(out, LedgerLeak{Version: r.version, Pins: pins, Sites: sites})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Version < out[j].Version })
	return out
}

// LedgerReset drops all accounts; tests call it first so earlier tests'
// mirrors don't bleed into their report.
func LedgerReset() {
	ledgerMu.Lock()
	defer ledgerMu.Unlock()
	ledgerLive = map[*Flat]*ledgerRec{}
}
