package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// benchSpec is the part of BENCHMARK.json the steadiness report reads.
type benchSpec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadiness runs every workload k times, on seeds seed..seed+k-1, as
// separate processes of this binary, and prints per metric the median,
// the quartiles, (Q3-Q1)/median and (max-min)/median. An end-to-end
// metric whose quartile spread exceeds its bound is marked OVER; one
// above a third of its bound is marked wide. setup_s is exempt from the
// spread bound, as in BENCHMARK.json. The failed share of every run of a
// workload must be identical.
func steadiness(k int, rc *runConfig, work string) error {
	seed := rc.seed
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("steadiness report reads BENCHMARK.json from the repository root: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	over := 0
	for _, wl := range spec.Workloads {
		if rc.workload != "" && wl.Name != rc.workload {
			continue
		}
		vals := map[string][]float64{}
		var shares [][2]int64
		for i := 0; i < k; i++ {
			s := seed + int64(i)
			cmd := exec.Command(self, "--workload", wl.Name, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.FormatFloat(spec.RunSeconds, 'g', -1, 64), "--trace", "0",
				"--server", rc.serverBin, "--work", work)
			cmd.Stderr = os.Stderr
			cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.Name, s, err)
			}
			res, err := lastResult(stdout)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.Name, s, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: correct=false", wl.Name, s)
			}
			shares = append(shares, [2]int64{res.Failed, res.Attempted})
			for name, m := range res.Metrics {
				vals[name] = append(vals[name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", wl.Name, s, compact(res.Metrics))
		}
		fmt.Printf("%s: %d runs, seeds %d..%d\n", wl.Name, k, seed, seed+int64(k)-1)
		fmt.Printf("  %-16s %12s %12s %12s %9s %9s %7s\n", "metric", "median", "Q1", "Q3", "IQR/med", "rng/med", "bound")
		for _, e := range spec.EndToEnd {
			xs := vals[e.Name]
			if len(xs) == 0 {
				return fmt.Errorf("%s: metric %s missing", wl.Name, e.Name)
			}
			q1, med, q3 := quartiles(xs)
			sort.Float64s(xs)
			iqr := (q3 - q1) / med
			rng := (xs[len(xs)-1] - xs[0]) / med
			mark := ""
			switch {
			case e.Name == "setup_s":
				mark = "(set-up: spread not bounded)"
			case iqr > e.Bound:
				mark = "OVER"
				over++
			case iqr > e.Bound/3:
				mark = "wide"
			}
			fmt.Printf("  %-16s %12.6g %12.6g %12.6g %9.4f %9.4f %7.3f %s\n", e.Name, med, q1, q3, iqr, rng, e.Bound, mark)
		}
		for _, sh := range shares {
			if sh[0]*shares[0][1] != shares[0][0]*sh[1] {
				fmt.Printf("  failed share differs between runs: %v\n", shares)
				over++
				break
			}
		}
		fmt.Printf("  failed/attempted: %d/%d (first run)\n", shares[0][0], shares[0][1])
	}
	if over > 0 {
		return fmt.Errorf("%d metric spreads over their bounds", over)
	}
	return nil
}

// lastResult parses the final line of a run's standard output.
func lastResult(stdout []byte) (*outcome, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res outcome
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("result line %q: %w", last, err)
	}
	return &res, nil
}

func compact(ms map[string]metricValue) string {
	var parts []string
	for _, n := range keys(ms) {
		v := ms[n].Value
		if math.Abs(v) >= 1e5 {
			parts = append(parts, fmt.Sprintf("%s=%.0f", n, v))
		} else {
			parts = append(parts, fmt.Sprintf("%s=%.5g", n, v))
		}
	}
	return strings.Join(parts, " ")
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
