package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkSpec is the part of BENCHMARK.json the self-check reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSelf runs this binary once as the driver would and decodes the
// result line. A separate process per run gives every run a fresh heap,
// which is what heap_live_mb and setup_s are defined against.
func runSelf(exe, workload string, seed uint64, seconds int, traced bool) (resultJSON, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return resultJSON{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res resultJSON
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return resultJSON{}, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	if !res.Correct || res.Failed > 0 {
		return res, fmt.Errorf("%s seed %d: correct=%v failed=%d", workload, seed, res.Correct, res.Failed)
	}
	return res, nil
}

// selfCheck is the repeatability check the acceptance rule applies,
// runnable by hand: every workload n times with seeds 1..n, then per
// workload × end-to-end metric the median, quartiles and relative IQR
// against the metric's bound in BENCHMARK.json; and two traced runs of
// one seed whose exact counts must agree to the last digit. Like the
// acceptance rule it reports setup_s's spread without failing on it.
func selfCheck(n, seconds int, out io.Writer) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("self-check reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var over []string
	fmt.Fprintf(out, "%-15s %-14s %12s %12s %12s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "rel IQR", "bound")
	for _, w := range spec.Workloads {
		values := make(map[string][]float64)
		for seed := uint64(1); seed <= uint64(n); seed++ {
			res, err := runSelf(exe, w.Name, seed, seconds, false)
			if err != nil {
				return err
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		for _, m := range spec.EndToEnd {
			vs := values[m.Name]
			if len(vs) != n {
				return fmt.Errorf("%s: metric %s reported by %d of %d runs", w.Name, m.Name, len(vs), n)
			}
			q1, q2, q3 := vs[0], vs[0], vs[0]
			if n > 1 {
				q1, q2, q3 = quartiles(vs)
			}
			iqr := relIQR(vs)
			mark := ""
			if iqr > m.Bound && m.Name != "setup_s" {
				mark = "  OVER"
				over = append(over, w.Name+"/"+m.Name)
			}
			fmt.Fprintf(out, "%-15s %-14s %12.4f %12.4f %12.4f %8.4f %6.2f%s\n", w.Name, m.Name, q2, q1, q3, iqr, m.Bound, mark)
		}
		a, err := runSelf(exe, w.Name, 1, seconds, true)
		if err != nil {
			return err
		}
		b, err := runSelf(exe, w.Name, 1, seconds, true)
		if err != nil {
			return err
		}
		for _, name := range exactCounts {
			if a.Metrics[name].Value != b.Metrics[name].Value {
				return fmt.Errorf("%s: exact count %s differs between two runs of seed 1: %v vs %v",
					w.Name, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
			fmt.Fprintf(out, "%-15s %-34s %14.4f exact across two traced runs\n", w.Name, name, a.Metrics[name].Value)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("spread exceeds the bound for %v", over)
	}
	return nil
}
