// Package loadgen is a closed-loop HTTP workload driver for the
// Tripoline serving layer: rate-limited concurrent workers replay
// scenario-defined mixes of queries, update batches, and subscription
// streams against a server (live over the network, or self-hosted
// in-process), recording per-endpoint latency histograms and
// status-code accounting. The same deterministic scenario machinery
// doubles as the server conformance suite: a seeded operation trace
// replayed sequentially against an unsharded and a sharded server must
// produce identical status-code and header contracts and answers.
//
// Everything is stdlib-only, like the rest of the repo: the pacer takes
// a pluggable clock so its arithmetic is unit-testable without real
// sleeps, and latency uses internal/metrics histograms so the quantile
// export is shared with the server's own instruments.
package loadgen

import (
	"sync"
	"time"
)

// Clock abstracts time for the pacer and scenario scheduler. The
// production clock is the real one; tests drive a FakeClock so pacing
// logic runs deterministically with zero wall-clock sleeps.
type Clock interface {
	Now() time.Time
	// After behaves like time.After: a channel that delivers once d has
	// elapsed.
	After(d time.Duration) <-chan time.Time
}

// realClock is the production Clock.
type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// RealClock returns the wall clock.
func RealClock() Clock { return realClock{} }

// FakeClock is a manually advanced Clock for deterministic tests. Time
// moves only when Advance is called; timers registered via After fire
// (in deadline order) as Advance passes their deadlines.
type FakeClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters []fakeWaiter
}

type fakeWaiter struct {
	at time.Time
	ch chan time.Time
}

// NewFakeClock starts a fake clock at the given instant.
func NewFakeClock(start time.Time) *FakeClock {
	return &FakeClock{now: start}
}

// Now returns the fake instant.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// After registers a timer that fires when Advance moves the clock past
// d from now. d <= 0 fires immediately.
func (c *FakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := make(chan time.Time, 1)
	at := c.now.Add(d)
	if d <= 0 {
		ch <- c.now
		return ch
	}
	c.waiters = append(c.waiters, fakeWaiter{at: at, ch: ch})
	return ch
}

// Advance moves the clock forward by d, firing every registered timer
// whose deadline is reached, earliest first.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	now := c.now
	var due []fakeWaiter
	rest := c.waiters[:0]
	for _, w := range c.waiters {
		if !w.at.After(now) {
			due = append(due, w)
		} else {
			rest = append(rest, w)
		}
	}
	c.waiters = rest
	c.mu.Unlock()
	// Fire outside the lock, earliest deadline first, so a woken goroutine
	// re-reading Now sees the advanced time.
	for i := 1; i < len(due); i++ {
		for j := i; j > 0 && due[j].at.Before(due[j-1].at); j-- {
			due[j], due[j-1] = due[j-1], due[j]
		}
	}
	for _, w := range due {
		w.ch <- now
	}
}

// Waiters reports how many timers are currently registered. Tests use
// it to synchronize: a worker blocked in Pacer.Wait has registered
// exactly one timer.
func (c *FakeClock) Waiters() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}

// BlockUntilWaiters spins (yielding, never sleeping) until at least n
// timers are registered — the test-side barrier for "the worker is now
// parked in Wait".
func (c *FakeClock) BlockUntilWaiters(n int) {
	for c.Waiters() < n {
		// Gosched, not Sleep: the contract of the fake clock is that tests
		// never consume wall time.
		yield()
	}
}
