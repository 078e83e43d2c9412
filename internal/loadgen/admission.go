package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"tripoline/internal/server"
)

// admissionEndpoints is every gated endpoint the 429 probe exercises.
// Paths take fmt verbs for problem/source where needed.
type admissionEndpoint struct {
	name   string
	method string
	path   string
	body   string
}

var admissionEndpoints = []admissionEndpoint{
	{"query", http.MethodGet, "/v1/query?problem=SSSP&source=1&full=1", ""},
	{"queryat", http.MethodGet, "/v1/queryat?problem=SSSP&source=1&version=1", ""},
	{"querymany", http.MethodPost, "/v1/querymany", `{"problem":"SSSP","sources":[1,2]}`},
	{"batch", http.MethodPost, "/v1/batch", `{"edges":[{"src":1,"dst":2,"w":3}]}`},
	{"delete", http.MethodPost, "/v1/delete", `{"edges":[{"src":1,"dst":2}]}`},
	{"subscribe", http.MethodGet, "/v1/subscribe?problem=SSSP&src=1", ""},
	{"poll", http.MethodGet, "/v1/subscribe?problem=SSSP&src=1&mode=poll&wait=1", ""},
}

// ProbeAdmission saturates a MaxInFlight=1/QueueDepth=0 server by
// pinning one admitted request inside the handler (via the server's
// admitted hook), then hits every gated endpoint and asserts the
// saturation contract: status 429, error code "overloaded"-family
// envelope, and a Retry-After header — on every endpoint. Returns the
// violations (empty means the contract holds).
//
// Not safe to run concurrently with other servers in-process: the
// admitted hook is package-global.
func ProbeAdmission(ctx context.Context) ([]string, error) {
	t, err := SelfHost(SelfHostConfig{
		Vertices: 256, Edges: 1024,
		Problems: []string{"SSSP"}, K: 4,
		MaxInFlight: 1, QueueDepth: 0,
		HistoryCapacity: 4,
		// No result cache: a cache hit legitimately bypasses the gate and
		// would turn the probe's deterministic 429 into a 200.
	})
	if err != nil {
		return nil, err
	}
	defer t.Close()

	admitted := make(chan struct{})
	release := make(chan struct{})
	restore := server.SetTestHookAdmitted(func(string) {
		admitted <- struct{}{}
		<-release
	})

	blockerDone := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.URL+"/v1/query?problem=SSSP&source=0&full=1", nil)
		if err != nil {
			blockerDone <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			blockerDone <- err
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		blockerDone <- nil
	}()

	select {
	case <-admitted:
	case err := <-blockerDone:
		restore()
		return nil, fmt.Errorf("loadgen: admission probe blocker died before admission: %v", err)
	case <-ctx.Done():
		restore()
		return nil, ctx.Err()
	}

	var violations []string
	hc := &http.Client{Timeout: 10 * time.Second}
	for _, ep := range admissionEndpoints {
		var rd io.Reader
		if ep.body != "" {
			rd = bytes.NewReader([]byte(ep.body))
		}
		req, err := http.NewRequestWithContext(ctx, ep.method, t.URL+ep.path, rd)
		if err != nil {
			violations = append(violations, fmt.Sprintf("%s: building request: %v", ep.name, err))
			continue
		}
		if ep.body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := hc.Do(req)
		if err != nil {
			violations = append(violations, fmt.Sprintf("%s: transport: %v", ep.name, err))
			continue
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			violations = append(violations, fmt.Sprintf("%s: status %d, want 429", ep.name, resp.StatusCode))
		}
		if resp.Header.Get("Retry-After") == "" {
			violations = append(violations, fmt.Sprintf("%s: 429 without Retry-After", ep.name))
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	close(release)
	restore()
	if err := <-blockerDone; err != nil {
		return violations, fmt.Errorf("loadgen: admission probe blocker: %v", err)
	}
	return violations, nil
}
