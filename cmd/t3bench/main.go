// Command t3bench reproduces the paper's evaluation: every table and figure
// of §5 can be regenerated individually or as a whole suite.
//
// Usage:
//
//	t3bench [-full] [-workers n] [experiment ...]
//
// Experiments: table1 table2 table3 table4 table5 table6
//
//	fig1 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14
//	ablation (feature-set ablation, an extension beyond the paper)
//	scheduling (prediction-driven scheduling, §1 extension)
//	planner (batched packed-tier plan costing, plan quality)
//	all (default)
//
// The default (quick) configuration finishes in a few minutes; -full uses
// the paper-scale 200-tree models and the complete query sets.
//
// -stats dumps the observability registry (prediction/training/execution
// metrics accumulated while the experiments ran) to stderr; -json swaps the
// formatted tables for a JSON document containing the experiment list and
// the metrics snapshot (the schema cmd/t3serve serves at /metrics.json),
// so CI can diff runs.
//
// -cpuprofile/-memprofile write pprof profiles covering the whole suite, for
// chasing regressions in training or prediction hot paths:
//
//	t3bench -cpuprofile cpu.pprof table1 && go tool pprof cpu.pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"time"

	"t3/internal/experiments"
	"t3/internal/obs"
)

// runner pairs an experiment name with its execution.
type runner struct {
	name string
	run  func(*experiments.Env) (interface{ Format() string }, error)
}

var runners = []runner{
	{"table1", func(e *experiments.Env) (interface{ Format() string }, error) { return e.RunTable1() }},
	{"table2", func(e *experiments.Env) (interface{ Format() string }, error) { return e.RunTable2() }},
	{"table3", func(e *experiments.Env) (interface{ Format() string }, error) { return e.RunTable3() }},
	{"table4", func(e *experiments.Env) (interface{ Format() string }, error) { return e.RunTable4() }},
	{"table5", func(e *experiments.Env) (interface{ Format() string }, error) { return e.RunTable5() }},
	{"table6", func(e *experiments.Env) (interface{ Format() string }, error) { return e.RunTable6() }},
	{"fig1", func(e *experiments.Env) (interface{ Format() string }, error) { return e.RunFig1() }},
	{"fig5", func(e *experiments.Env) (interface{ Format() string }, error) { return e.RunFig5() }},
	{"fig6", func(e *experiments.Env) (interface{ Format() string }, error) { return e.RunFig6() }},
	{"fig7", func(e *experiments.Env) (interface{ Format() string }, error) { return e.RunFig7() }},
	{"fig8", func(e *experiments.Env) (interface{ Format() string }, error) { return e.RunFig8() }},
	{"fig9", func(e *experiments.Env) (interface{ Format() string }, error) { return e.RunFig9() }},
	{"fig10", func(e *experiments.Env) (interface{ Format() string }, error) { return e.RunFig10() }},
	{"fig11", func(e *experiments.Env) (interface{ Format() string }, error) { return e.RunFig11() }},
	{"fig12", func(e *experiments.Env) (interface{ Format() string }, error) { return e.RunFig12() }},
	{"fig13", func(e *experiments.Env) (interface{ Format() string }, error) { return e.RunFig13() }},
	{"fig14", func(e *experiments.Env) (interface{ Format() string }, error) { return e.RunFig14() }},
	{"ablation", func(e *experiments.Env) (interface{ Format() string }, error) { return e.RunFeatureAblation() }},
	{"scheduling", func(e *experiments.Env) (interface{ Format() string }, error) { return e.RunScheduling() }},
	{"planner", func(e *experiments.Env) (interface{ Format() string }, error) { return e.RunPlanner() }},
}

// jsonOutput is the -json schema: the experiments run plus the metrics
// snapshot (the same schema t3serve serves at /metrics.json).
type jsonOutput struct {
	Schema      string            `json:"schema"`
	Experiments map[string]string `json:"experiments"` // name -> wall time
	Metrics     obs.Snapshot      `json:"metrics"`
}

func main() {
	full := flag.Bool("full", false, "run the paper-scale configuration (slower)")
	workers := flag.Int("workers", 0, "parallel workers for batched prediction (0 = GOMAXPROCS)")
	list := flag.Bool("list", false, "list available experiments")
	stats := flag.Bool("stats", false, "dump the observability registry to stderr on exit")
	jsonOut := flag.Bool("json", false, "emit experiment list + metrics snapshot as JSON instead of tables")
	logFormat := flag.String("log", "text", "log format: text|json")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProf := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	obs.SetupLogging(os.Stderr, *logFormat, false)

	stopProf, err := obs.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		slog.Error("profiling", "err", err)
		os.Exit(1)
	}

	if *list {
		names := make([]string, len(runners))
		for i, r := range runners {
			names[i] = r.name
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Println(n)
		}
		return
	}

	cfg := experiments.QuickConfig()
	if *full {
		cfg = experiments.FullConfig()
	}
	cfg.Workers = *workers
	cfg.Corpus.Progress = func(s string) { slog.Info(s) }
	env := experiments.NewEnv(cfg)

	want := flag.Args()
	expandAll := len(want) == 0
	for _, w := range want {
		if w == "all" {
			expandAll = true
		}
	}
	if expandAll {
		want = nil
		for _, r := range runners {
			want = append(want, r.name)
		}
	}

	byName := make(map[string]runner, len(runners))
	for _, r := range runners {
		byName[r.name] = r
	}
	ran := make(map[string]string)
	failed := false
	for _, name := range want {
		r, ok := byName[name]
		if !ok {
			slog.Error("unknown experiment (use -list)", "name", name)
			failed = true
			continue
		}
		start := time.Now()
		res, err := r.run(env)
		if err != nil {
			slog.Error("experiment failed", "name", name, "err", err)
			failed = true
			continue
		}
		elapsed := time.Since(start).Round(time.Millisecond)
		ran[name] = elapsed.String()
		if !*jsonOut {
			fmt.Printf("\n=== %s (%v) ===\n%s", name, elapsed, res.Format())
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonOutput{
			Schema:      "t3/metrics-snapshot/v1",
			Experiments: ran,
			Metrics:     obs.Default.Snapshot(),
		}); err != nil {
			slog.Error("encoding output", "err", err)
			failed = true
		}
	}
	if *stats {
		fmt.Fprint(os.Stderr, obs.Default.DumpText())
	}
	stopProf() // flush profiles before any non-zero exit
	if failed {
		os.Exit(1)
	}
}
