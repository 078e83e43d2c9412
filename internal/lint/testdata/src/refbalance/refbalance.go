// Package refbalance is the golden corpus for the refbalance analyzer:
// the mirror pin protocol in miniature. mirror carries the recognized
// refcount shape (Retain() bool paired with Release()), pin/pinChecked
// are getters whose summaries transfer the obligation to callers, entry
// has a tracked teardown field (drop calls it), and keep is a releasing
// callee (its summary discharges the parameter it stores).
package refbalance

import "errors"

type mirror struct{ refs int }

func (m *mirror) Retain() bool {
	if m.refs <= 0 {
		return false
	}
	m.refs++
	return true
}

func (m *mirror) Release() { m.refs-- }

var current = &mirror{refs: 1}

func use(m *mirror) {}

// pin transfers the obligation to the caller via the returned
// release-func: legal (the getter shape of pinView).
func pin() (*mirror, func()) {
	m := current
	if m.Retain() {
		return m, m.Release
	}
	return m, func() {}
}

// pinChecked pairs the obligation with an error result; on the error
// path it releases internally, so the caller owes nothing there (the
// pinShared shape).
func pinChecked() (*mirror, func(), error) {
	m, release := pin()
	if m.refs > 100 {
		release()
		return nil, nil, errors.New("overloaded")
	}
	return m, release, nil
}

// entry has a tracked teardown field: drop invokes pin, so storing a
// release-func there is a recognized ownership transfer.
type entry struct{ pin func() }

func (e *entry) drop() {
	if e.pin != nil {
		e.pin()
	}
}

// keep discharges its parameter by stashing it in the tracked field.
func keep(f func()) *entry { return &entry{pin: f} }

// holder's field has no teardown site anywhere in the package, so a
// store into it loses the obligation.
type holder struct{ f func() }

// ---------------------------------------------------------------- violations

// leakHalf releases on only one branch; the other path drops the pin.
func leakHalf(cond bool) {
	m, release := pin() // want "never discharged"
	if cond {
		release()
	}
	use(m)
}

// leakReturn exits early without releasing or transferring.
func leakReturn() int {
	m, release := pin()
	if m.refs > 10 {
		return -1 // want "return leaks"
	}
	release()
	return m.refs
}

// leakDiscard throws the release-func away at the call site.
func leakDiscard() *mirror {
	m, _ := pin() // want "discards the release obligation"
	return m
}

// leakStore parks the release-func in a field nothing ever tears down.
func leakStore(h *holder) {
	_, release := pin() // want "never discharged"
	h.f = release
}

// leakGuard retains but neither releases nor transfers afterwards.
func leakGuard() int {
	m := current
	if m.Retain() {
		use(m)
	}
	return m.refs // want "return leaks"
}

// --------------------------------------------------------------------- legal

// legalDefer is the standard caller shape: defer covers every path.
func legalDefer() int {
	m, release := pin()
	defer release()
	return m.refs
}

// legalErrGuard relies on the error-result waiver: when err != nil the
// producer already released, so the bare return is fine.
func legalErrGuard() (int, error) {
	m, release, err := pinChecked()
	if err != nil {
		return 0, err
	}
	defer release()
	return m.refs, nil
}

// legalStash transfers the obligation into the tracked teardown field.
func legalStash() *entry {
	_, release := pin()
	e := &entry{pin: release}
	return e
}

// legalForward hands the obligation to a releasing callee.
func legalForward() *entry {
	_, release := pin()
	return keep(release)
}

// legalRetarget moves the obligation from the retained value to the
// bound release-func, then to the callee.
func legalRetarget() *entry {
	var pinFn func()
	if m := current; m.Retain() {
		pinFn = m.Release
	}
	return keep(pinFn)
}
