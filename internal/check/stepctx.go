package check

import (
	"context"
	"sync/atomic"
	"time"
)

// stepCtx is a context.Context whose cancellation is counted in engine
// consultations instead of wall-clock time: the engine polls ctx.Err()
// once per superstep boundary, so "cancel after step 3" becomes a
// deterministic schedule operation rather than a timing race.
//
// It deliberately has no Done channel: the engine's cooperative
// cancellation only calls Err(), and a nil Done keeps every select-free
// guarantee of the query path intact.
type stepCtx struct {
	consults atomic.Int64
	// cancelAfter > 0: Err returns context.Canceled from the
	// (cancelAfter+1)-th consultation on. Sticky by construction — the
	// counter only grows.
	cancelAfter int64
}

func newCancelCtx(step int) *stepCtx { return &stepCtx{cancelAfter: int64(step)} }

func (c *stepCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *stepCtx) Done() <-chan struct{}       { return nil }
func (c *stepCtx) Value(any) any               { return nil }

func (c *stepCtx) Err() error {
	n := c.consults.Add(1)
	if c.cancelAfter > 0 && n > c.cancelAfter {
		return context.Canceled
	}
	return nil
}
