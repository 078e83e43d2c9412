//go:build !tripoline_ledger

package streamgraph

// No-op stubs for builds without the refcount ledger; see ledger.go for
// the tagged implementation. The empty hook bodies inline to nothing,
// so the untagged Retain/Release fast paths are unchanged (pinned by
// BenchmarkRetainRelease).

const ledgerOn = false

func ledgerBuilt(*Flat)      {}
func ledgerSuperseded(*Flat) {}
func ledgerHold(*Flat)       {}
func ledgerUnhold(*Flat)     {}
func ledgerRetain(*Flat)     {}
func ledgerRelease(*Flat)    {}
func ledgerRetire(*Flat)     {}

// LedgerReport always reports clean in untagged builds.
func LedgerReport() []LedgerLeak { return nil }

// LedgerReset is a no-op in untagged builds.
func LedgerReset() {}
