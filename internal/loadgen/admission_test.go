package loadgen

import (
	"context"
	"testing"
	"time"
)

// TestProbeAdmission pins the saturation contract on every gated
// endpoint: a full gate answers 429 with Retry-After.
func TestProbeAdmission(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	violations, err := ProbeAdmission(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range violations {
		t.Error(v)
	}
}
