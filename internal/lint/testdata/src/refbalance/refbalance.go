// Package refbalance is the golden corpus for the refbalance analyzer:
// the mirror pin protocol in miniature. mirror carries the recognized
// refcount shape (Retain() bool paired with Release()), pin/pinChecked
// are getters whose summaries transfer the obligation to callers, entry
// has a tracked teardown field (drop Releases it), and keep and finish
// are releasing callees (their summaries discharge the parameter they
// store or call).
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
// release-func: legal (the getter shape of core.PinMirror — retain the
// shared mirror, or on a miss build one the caller owns; either way the
// value goes out with its release).
func pin() (*mirror, func()) {
	if m := current; m.Retain() {
		return m, m.Release
	}
	m := &mirror{refs: 1}
	return m, m.Release
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

// entry has a tracked teardown field: drop Releases m, so storing a
// retained mirror there is a recognized ownership transfer.
type entry struct{ m *mirror }

func (e *entry) drop() {
	if e.m != nil {
		e.m.Release()
	}
}

// keep discharges its parameter by stashing it in the tracked field.
func keep(m *mirror) *entry { return &entry{m: m} }

// finish discharges its parameter by calling it.
func finish(f func()) {
	if f != nil {
		f()
	}
}

// holder's func-typed field is no teardown site — only a refcounted field
// something Releases is — so a store into it loses the obligation.
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

// legalStash transfers the retained mirror into the tracked teardown
// field.
func legalStash() *entry {
	m := current
	if !m.Retain() {
		return nil
	}
	e := &entry{m: m}
	return e
}

// legalForward hands the retained mirror to a releasing callee.
func legalForward() *entry {
	m := current
	if !m.Retain() {
		return nil
	}
	return keep(m)
}

// legalRetarget moves the obligation from the retained value to the
// bound release-func, then to the callee that calls it.
func legalRetarget() {
	var pinFn func()
	if m := current; m.Retain() {
		pinFn = m.Release
	}
	finish(pinFn)
}
