// Package refbalance is the golden corpus for the refbalance analyzer:
// the mirror pin protocol in miniature. mirror carries the recognized
// refcount shape (Retain() bool paired with Release()), and pin/pinChecked
// are getters whose summaries transfer the obligation to callers. An
// obligation is discharged only by calling its release (directly or
// deferred) or by returning it: storing it, sending it, launching its
// release, or handing it to a callee that releases it all leave it owed.
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

func (m *mirror) RetireFlat() { m.refs-- }

var current = &mirror{refs: 1}

func use(m *mirror) {}

// pin transfers the obligation to the caller via the returned
// release-func: legal (the getter shape of core.pin — retain the
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

// entry's drop releases its mirror, but storing a retained mirror in it
// is no discharge.
type entry struct{ m *mirror }

func (e *entry) drop() {
	if e.m != nil {
		e.m.Release()
	}
}

// keep stores its parameter; finish calls it and reports that it did.
// Neither discharges the caller's obligation.
func keep(m *mirror) *entry { return &entry{m: m} }

func finish(f func()) bool {
	if f != nil {
		f()
	}
	return f != nil
}

// holder's func-typed field is no teardown site, so a store into it loses
// the obligation.
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

// leakStash stores the retained mirror in an entry and returns that.
func leakStash() *entry {
	m := current
	if !m.Retain() {
		return nil
	}
	e := &entry{m: m}
	return e // want "return leaks"
}

// leakForward hands the retained mirror to a callee and returns its
// result.
func leakForward() *entry {
	m := current
	if !m.Retain() {
		return nil
	}
	return keep(m) // want "return leaks"
}

// leakRetarget binds the release to another variable and passes that on.
func leakRetarget() {
	var pinFn func()
	if m := current; m.Retain() { // want "never discharged"
		pinFn = m.Release
	}
	finish(pinFn)
}

// leakSend sends the release-func on a channel.
func leakSend(ch chan func()) {
	_, release := pin() // want "never discharged"
	ch <- release
}

// leakGo releases on another goroutine, which may never run it.
func leakGo() {
	_, release := pin() // want "never discharged"
	go release()
}

// leakAssign hands the release-func to a callee in an assignment.
func leakAssign() bool {
	_, release := pin()
	done := finish(release)
	return done // want "return leaks"
}

// leakRetire drops the mirror's snapshot reference, not the pin.
func leakRetire() {
	m := current
	if !m.Retain() { // want "never discharged"
		return
	}
	m.RetireFlat()
}

// leakLoop releases inside a loop that may not run.
func leakLoop(n int) {
	m, release := pin() // want "never discharged"
	for i := 0; i < n; i++ {
		release()
	}
	use(m)
}

// leakErrNil waives only the `err != nil` branch: the implicit else of
// `err == nil` still owes the release.
func leakErrNil() (int, error) {
	m, release, err := pinChecked()
	if err == nil {
		defer release()
		return m.refs, nil
	}
	return 0, err // want "return leaks"
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
