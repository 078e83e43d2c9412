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
// count as the ledger saw it, whether the snapshot's reference is among
// them (dropped by RetireFlat) and the Graph's (dropped when the next
// version is published), the holders' references (Hold), and the net
// outstanding Retain sites.
type ledgerRec struct {
	version      uint64
	live         int64
	ownerDropped bool
	writer       bool
	holds        int64
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

// ledgerBuilt opens the account of a published mirror, born with the
// snapshot's reference and the Graph's.
func ledgerBuilt(f *Flat) {
	ledgerMu.Lock()
	defer ledgerMu.Unlock()
	ledgerLive[f] = &ledgerRec{version: f.version, live: 2, writer: true, retains: map[string]int{}}
}

// ledgerSuperseded notes that the Graph is about to drop its reference.
func ledgerSuperseded(f *Flat) {
	ledgerMu.Lock()
	defer ledgerMu.Unlock()
	if r := ledgerLive[f]; r != nil {
		r.writer = false
	}
}

func ledgerHold(f *Flat) {
	ledgerMu.Lock()
	defer ledgerMu.Unlock()
	if r := ledgerLive[f]; r != nil {
		r.live++
		r.holds++
	}
}

// ledgerUnhold notes that a holder is about to drop its reference.
func ledgerUnhold(f *Flat) {
	ledgerMu.Lock()
	defer ledgerMu.Unlock()
	if r := ledgerLive[f]; r != nil {
		r.holds--
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

// LedgerReport returns the mirrors holding reader pins beyond their
// legitimate references — an un-retired snapshot's, the Graph's on the
// latest mirror, and holders' — oldest version first. An empty report at
// teardown means every Retain found its Release.
func LedgerReport() []LedgerLeak {
	ledgerMu.Lock()
	defer ledgerMu.Unlock()
	var out []LedgerLeak
	for _, r := range ledgerLive {
		pins := r.live - r.holds
		if !r.ownerDropped {
			pins-- // the snapshot's own reference is not a leak
		}
		if r.writer {
			pins-- // nor is the Graph's on its latest mirror
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
