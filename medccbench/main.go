// Command medccbench is the end-to-end benchmark of the MED-CC service
// and of the paper's evaluation campaign. One run executes one workload
// for a fixed time, checks every output against an oracle of its own,
// and prints its metrics as the last line of standard output:
//
//	bash medccbench/run.sh --workload serve-hit --seed 1 --seconds 10 --trace 0
//
// Workloads: serve-hit, serve-solve (the medcc-serve binary as its own
// process, driven over loopback HTTP) and campaign (internal/exper in
// this process). --trace 1 runs the layer-by-layer traced replay
// instead. --steady k runs every workload k times and prints the
// run-to-run spread of each metric. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// runConfig is one run's settings.
type runConfig struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	serverBin string
	dir       string // private scratch directory of the run
	conns     int    // load-generator connections and senders: nproc
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the run's final line plus the accounting printed before it.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (o *outcome) metric(name string, v float64, unit string) {
	o.Metrics[name] = metricValue{Value: v, Unit: unit}
}

// logf prints one accounting line; these precede the result line.
func (o *outcome) logf(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

var workloads = map[string]func(*runConfig, *outcome) error{
	"serve-hit":   runServeHit,
	"serve-solve": runServeSolve,
	"campaign":    runCampaign,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "medccbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		rc     runConfig
		trace  int
		steady int
		work   string
	)
	flag.StringVar(&rc.workload, "workload", "", "serve-hit, serve-solve or campaign")
	flag.Int64Var(&rc.seed, "seed", 1, "workload seed: every input is derived from it")
	flag.Float64Var(&rc.seconds, "seconds", 10, "measured time of the run")
	flag.IntVar(&trace, "trace", 0, "1 runs the layer-by-layer traced replay instead of the end-to-end run")
	flag.IntVar(&steady, "steady", 0, "run every workload this many times (seeds seed, seed+1, ...) and report the spread")
	flag.StringVar(&rc.serverBin, "server", "", "medcc-serve binary (run.sh builds it)")
	flag.StringVar(&work, "work", ".bench_build/work", "directory for per-run scratch files")
	flag.Parse()
	rc.trace = trace == 1
	rc.conns = runtime.NumCPU()
	if steady > 0 {
		return steadiness(steady, &rc, work)
	}
	body, ok := workloads[rc.workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q (want one of %v)", rc.workload, keys(workloads))
	}
	if rc.serverBin == "" {
		return errors.New("--server is required")
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rc.dir = dir

	out := &outcome{Metrics: map[string]metricValue{}}
	if rc.trace {
		err = runTraced(&rc, out)
	} else {
		err = body(&rc, out)
	}
	if err != nil {
		return err
	}
	out.Correct = true
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
