// Command bench is the one benchmark of this repository: six named
// workloads, from in-process prediction through TCP serving, planning and
// execution to retraining, measured end to end, and in a traced run layer
// by layer. README.md describes the workloads and the metrics; BENCHMARK.json
// at the repository root registers them and fixes their regression bounds.
//
// Usage (from this directory; the package is a module of its own):
//
//	go run . [-seed N] [-workloads a,b] [-window 10s] [-warmup 2s]
//	         [-runs N] [-trace] [-out out]
//	go run . -compare A.json B.json
//
// A run of one workload ends its output with one JSON object holding that
// workload's metrics, which is the form the benchmark contract reads; run.sh
// builds the program and translates the contract's arguments:
//
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// The program measures the system from outside: it calls public functions
// of the repository's packages and starts the real cmd/t3serve over its
// documented flags. Every workload runs in a fresh child process (-child),
// so heap, worker pools, caches and peak memory never carry over.
//
// All workloads are closed-loop: a caller sends its next op when the last
// one has answered. T3's callers are query optimizers and schedulers that
// block on the prediction, so that is the load the system meets; an open
// loop would model independent users, which it has none of.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// options are the command line of every mode.
type options struct {
	seed      int64
	workloads string
	window    time.Duration
	warmup    time.Duration
	runs      int
	trace     bool
	out       string
	root      string
	compare   bool

	// Internal: this process is a workload child.
	child      string
	childBreak string
}

func parseOptions(args []string) (*options, []string, error) {
	o := &options{}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	fs.StringVar(&o.workloads, "workloads", strings.Join(workloadNames, ","), "workloads to run, comma-separated")
	fs.DurationVar(&o.window, "window", 10*time.Second, "measurement window per workload")
	fs.DurationVar(&o.warmup, "warmup", 2*time.Second, "warm-up before the window")
	fs.IntVar(&o.runs, "runs", 1, "repetitions of the whole set, each starting one workload later in the order")
	fs.BoolVar(&o.trace, "trace", false, "traced run: replay a fixed op count with spans and report the per-layer metrics")
	fs.StringVar(&o.out, "out", "", "output directory (default <root>/bench/out)")
	fs.StringVar(&o.root, "root", "", "repository root (default: found from the working directory)")
	fs.BoolVar(&o.compare, "compare", false, "compare two result files: -compare A.json B.json")
	fs.StringVar(&o.child, "child", "", "internal: run this workload in this process")
	fs.StringVar(&o.childBreak, "child-break", "", "tests only: corrupt this workload's reference answers")
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	if o.root == "" {
		for _, dir := range []string{".", ".."} {
			if _, err := os.Stat(filepath.Join(dir, "models", "t3_default.json")); err == nil {
				o.root = dir
			}
		}
		if o.root == "" {
			return nil, nil, errors.New("repository root not found; pass -root")
		}
	}
	var err error
	if o.root, err = filepath.Abs(o.root); err != nil {
		return nil, nil, err
	}
	if o.out == "" {
		o.out = filepath.Join(o.root, "bench", "out")
	}
	if o.out, err = filepath.Abs(o.out); err != nil {
		return nil, nil, err
	}
	return o, fs.Args(), nil
}

func run(args []string) error {
	o, rest, err := parseOptions(args)
	if err != nil {
		return err
	}
	switch {
	case o.compare:
		if len(rest) != 2 {
			return errors.New("-compare takes two result files")
		}
		return runCompare(o.root, rest[0], rest[1], os.Stdout)
	case o.child != "":
		res, err := runChild(&childConfig{
			workload: o.child, seed: o.seed, window: o.window, warmup: o.warmup, trace: o.trace,
			outDir: o.out, root: o.root, serveBin: serverPath(o.out), broken: o.childBreak == o.child,
		})
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(res)
	}
	return runDriver(o)
}
