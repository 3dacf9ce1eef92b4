// Command perfbench is the repository benchmark. It drives the simulator
// through its public entry points only — fleet.New, (*fleet.Fleet).Run
// and the experiments.Run* functions — in a closed loop (one caller; the
// next call is issued when the previous one returns), checks every
// output, and prints one JSON result line last:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root (run.sh builds it first):
//
//	perfbench --workload storm_dense|storm_sparse|scenarios --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end set of BENCHMARK.json;
// with --trace 1 they are the per-layer set, from a CPU profile taken
// on every other block of work (see ledger.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// maxProcs caps the harness at the two threads every workload is
// specified for, whatever the host offers.
const maxProcs = 2

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// small shrinks the storm fleets to test size (see shrink).
	small bool
	// profDir, when set, keeps each traced block's CPU profile there,
	// labelled by workload, phase and scenario for `go tool pprof -tagfocus`.
	profDir string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records one operation whose output check failed.
func (r *result) fail(log io.Writer, format string, args ...any) {
	r.Failed++
	fmt.Fprintf(log, "perfbench: check failed: "+format+"\n", args...)
}

func main() {
	var cfg config
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: storm_dense, storm_sparse or scenarios")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&seconds, "seconds", 10, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics from a profiled run")
	flag.StringVar(&cfg.profDir, "profdir", "", "directory to keep the traced run's CPU profiles in")
	flag.Parse()
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	if flag.NArg() != 0 || (trace != 0 && trace != 1) || seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(maxProcs)

	res, err := run(cfg, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload. Human-readable lines (fingerprints, the
// metric table) go to out; failed checks are explained on log.
func run(cfg config, out, log io.Writer) (result, error) {
	var res result
	var err error
	if opts, ok := storms[cfg.workload]; ok {
		res, err = runStorm(cfg, opts, out, log)
	} else if cfg.workload == "scenarios" {
		res, err = runScenarios(cfg, out, log)
	} else {
		return res, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return res, err
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Fprintf(out, "%-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	return res, nil
}
