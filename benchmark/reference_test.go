package main

import "testing"

func TestReferenceSweepIsFixedWork(t *testing.T) {
	a, b := newReference(), newReference()
	if ms := a.sweep(); !(ms > 0) {
		t.Fatalf("sweep took %v ms", ms)
	}
	b.sweep()
	if a.sink.Load() != b.sink.Load() || a.sink.Load() == 0 {
		t.Errorf("two references computed %d and %d: the sweep is not the same work every time", a.sink.Load(), b.sink.Load())
	}
}

func TestOnReferenceMachine(t *testing.T) {
	r := reduceRounds([]float64{10, 12, 11})
	// A machine at 0.8 of the reference speed: what took 11 ms here takes
	// 8.8 ms there; 11 ops/s here is 13.75 there.
	if got := r.onReferenceMachine(aTime, 0.8); !near(got.value, 8.8) || got.measured != 11 {
		t.Errorf("time: %+v", got)
	}
	if got := r.onReferenceMachine(aRate, 0.8); !near(got.value, 13.75) || got.measured != 11 {
		t.Errorf("rate: %+v", got)
	}
	if got := r.onReferenceMachine(unscaled, 0.8); got.value != 11 {
		t.Errorf("unscaled: %+v", got)
	}
}
