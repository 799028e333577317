package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness mode reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSteady runs every workload n times, interleaving the workloads
// (seed, seed+1, … for the successive runs), each as a separate process
// like a standalone run, and prints per metric the median, the quartiles
// and the spread (q3 − q1)/median next to the metric's bound. A spread
// below a third of the bound is what the bounds are set against.
func runSteady(out io.Writer, n int, names string, seed int64, seconds int) error {
	const benchJSON = "BENCHMARK.json" // at the root of the repository, where runs start
	raw, err := os.ReadFile(benchJSON)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", benchJSON, err)
	}
	workloads := strings.Split(names, ",")
	if names == "" {
		workloads = nil
		for _, w := range bf.Workloads {
			workloads = append(workloads, w.Name)
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string]map[string][]float64{} // workload → metric → values
	failShare := map[string][]string{}
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			s := seed + int64(i)
			cmd := exec.Command(self, "--workload", w, "--seed", fmt.Sprint(s), "--seconds", fmt.Sprint(seconds), "--trace", "0")
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", w, s, err)
			}
			res, err := lastResult(stdout.Bytes())
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, s, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: checks failed:\n%s", w, s, stdout.String())
			}
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[w][name] = append(values[w][name], m.Value)
			}
			failShare[w] = append(failShare[w], fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
			fmt.Fprintf(out, "# run %d %s seed %d: %s\n", i+1, w, s, summary(res))
		}
	}
	fmt.Fprintf(out, "\n%-22s %-12s %12s %12s %12s %8s %6s %s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, e := range bf.EndToEnd {
			xs := values[w][e.Name]
			if len(xs) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(xs)
			spread := (q3 - q1) / q2
			verdict := "ok"
			switch {
			case e.Name == "setup_s":
				verdict = "not gated"
			case spread > e.Bound:
				verdict = "OVER BOUND"
			case spread > e.Bound/3:
				verdict = "over bound/3"
			}
			fmt.Fprintf(out, "%-22s %-12s %12.6g %12.6g %12.6g %8.4f %6.3f %s\n", w, e.Name, q1, q2, q3, spread, e.Bound, verdict)
		}
		fmt.Fprintf(out, "%-22s failed/attempted per run: %s\n", w, strings.Join(failShare[w], " "))
	}
	return nil
}

var errNoResult = errors.New("no result line")

// lastResult parses the JSON object on the last line of a run's output.
func lastResult(b []byte) (*result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			last = l
		}
	}
	if last == "" {
		return nil, errNoResult
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("parsing the result line: %w", err)
	}
	return &res, nil
}

func summary(res *result) string {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "%s=%.6g ", k, res.Metrics[k].Value)
	}
	return strings.TrimSpace(b.String())
}
