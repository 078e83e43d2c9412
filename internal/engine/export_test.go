package engine

import (
	"context"
	"sync/atomic"
)

// Test-only re-exports so the external engine_test package (which can
// import props — the package itself cannot) can pin the frontier
// representation.
var DenseFractionForTest = &denseFraction

// ConsultCtx "times out" after a fixed number of Err() consults — a
// deterministic stand-in for a wall-clock deadline firing
// mid-convergence. The engine consults the context once per superstep
// boundary, so the cancellation point is exact. A real 1ms timer made
// these tests flaky: under -race it can expire before the first
// superstep (zero iterations) on a slow machine, or never fire on a
// fast one. It lives here so in-package and external tests share it.
type ConsultCtx struct {
	context.Context
	left atomic.Int64
}

func NewConsultCtx(consults int) *ConsultCtx {
	c := &ConsultCtx{Context: context.Background()}
	c.left.Store(int64(consults))
	return c
}

func (c *ConsultCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.DeadlineExceeded
	}
	return nil
}

func (c *ConsultCtx) Done() <-chan struct{} { return nil }
