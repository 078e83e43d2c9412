// Package goroleak is the golden corpus for the goroleak analyzer:
// launched goroutines whose channel operations lack an escape edge are
// leaks; the recognized escapes are ctx.Done() arms and locally buffered
// hand-off channels. A default clause, a timer arm and a channel closed
// elsewhere are not escapes.
package goroleak

import (
	"context"
	"time"
)

func work() int { return 1 }

// ---------------------------------------------------------------- violations

// leakSend parks forever when nobody receives.
func leakSend(ch chan int) {
	go func() { // want "block forever"
		ch <- work()
	}()
}

// leakRecv selects only over channels nothing closes or cancels.
func leakRecv(a, b chan int) {
	go func() { // want "block forever"
		select {
		case <-a:
		case <-b:
		}
	}()
}

// leakRange ranges a channel the module never closes.
func leakRange(ch chan int) {
	go func() { // want "block forever"
		for range ch {
		}
	}()
}

// drain blocks on a bare receive; launching it leaks, and the Blocks
// summary pins the report on the go statement.
func drain(ch chan int) {
	<-ch
}

func leakNamed(ch chan int) {
	go drain(ch) // want "can block forever"
}

// leakClosed receives from a channel the module closes at shutdown.
var done = make(chan struct{})

func shutdown() { close(done) }

func leakClosed() {
	go func() { // want "block forever"
		<-done
	}()
}

// leakDefault polls without blocking, but a default clause is no
// recognized escape: no goroutine in the module polls.
func leakDefault(ch chan int) {
	go func() { // want "block forever"
		select {
		case v := <-ch:
			_ = v
		default:
		}
	}()
}

// leakAfter bounds the wait with time.After.
func leakAfter(ch chan int) {
	go func() { // want "block forever"
		select {
		case <-ch:
		case <-time.After(time.Second):
		}
	}()
}

// leakTimer bounds the wait with a Timer's channel.
func leakTimer(ch chan int, t *time.Timer) {
	go func() { // want "block forever"
		select {
		case <-ch:
		case <-t.C:
		}
	}()
}

// --------------------------------------------------------------------- legal

// legalHandoff sends into a locally made buffered channel: the send
// completes even if the reader has moved on.
func legalHandoff() int {
	errCh := make(chan int, 1)
	go func() {
		errCh <- work()
	}()
	return <-errCh
}

// legalCtx has a cancellation arm.
func legalCtx(ctx context.Context, ch chan int) {
	go func() {
		select {
		case <-ch:
		case <-ctx.Done():
		}
	}()
}
