package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
)

// envBlock records where and how a set of results was measured.
type envBlock struct {
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	CPU        string   `json:"cpu_model"`
	Kernel     string   `json:"kernel"`
	Go         string   `json:"go_version"`
	Commit     string   `json:"git_commit"`
	Dirty      bool     `json:"git_dirty"`
	GOGC       string   `json:"gogc"`
	Seed       int64    `json:"seed"`
	WindowS    float64  `json:"window_s"`
	WarmupS    float64  `json:"warmup_s"`
	Conns      int      `json:"conns"`
	ServeFlags []string `json:"t3serve_flags"`
}

func collectEnv(o *options) envBlock {
	e := envBlock{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		CPU: "unknown", Kernel: "unknown", Commit: "unknown", GOGC: "100",
		Seed: o.seed, WindowS: o.window.Seconds(), WarmupS: o.warmup.Seconds(), Conns: numConns(),
		// Ports are picked per start; serve_batch_miss adds "-cache 8192".
		ServeFlags: []string{"-addr", "127.0.0.1:<free>", "-tcp", "127.0.0.1:<free>", "-model", "models/t3_default.json"},
	}
	if v := os.Getenv("GOGC"); v != "" {
		e.GOGC = v
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				e.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(data))
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = o.root
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	// A checkout that is not a git repository keeps "unknown".
	if commit, err := git("rev-parse", "HEAD"); err == nil {
		e.Commit = commit
		status, _ := git("status", "--porcelain")
		e.Dirty = status != ""
	}
	return e
}

func (e envBlock) print() {
	fmt.Printf("# env nproc=%d gomaxprocs=%d conns=%d gogc=%s go=%s kernel=%s\n", e.NProc, e.GOMAXPROCS, e.Conns, e.GOGC, e.Go, e.Kernel)
	fmt.Printf("# env cpu=%q commit=%s dirty=%v\n", e.CPU, e.Commit, e.Dirty)
	fmt.Printf("# env seed=%d window=%gs warmup=%gs t3serve=%q\n", e.Seed, e.WindowS, e.WarmupS, strings.Join(e.ServeFlags, " "))
}

// runRecord is one pass over the workloads.
type runRecord struct {
	Seed      int64                   `json:"seed"`
	Trace     bool                    `json:"trace"`
	Order     []string                `json:"order"`
	Workloads map[string]*childResult `json:"workloads"`
}

// resultsFile is the layout of out/results.json.
type resultsFile struct {
	Schema string      `json:"schema"`
	Env    envBlock    `json:"env"`
	Runs   []runRecord `json:"runs"`
}

const resultsSchema = "t3/bench/v1"

// serverPath is where the driver builds cmd/t3serve and the children find it.
func serverPath(out string) string { return filepath.Join(out, "t3serve") }

// buildServer builds cmd/t3serve from the repository's source into the
// output directory. With a warm build cache that takes a fraction of a
// second; it is no part of any workload's setup_s.
func buildServer(o *options) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", serverPath(o.out), "./cmd/t3serve")
	cmd.Dir = o.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building cmd/t3serve: %w\n%s", err, out)
	}
	return nil
}

// spawnChild runs one workload in a fresh process of this binary. The child
// leads a process group of its own, which t3serve joins; whatever way the
// child ends, the group is killed, so no server outlives its run.
func spawnChild(o *options, workload string, trace bool) (*childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-window", o.window.String(), "-warmup", o.warmup.String(), "-trace=" + strconv.FormatBool(trace),
		"-out", o.out, "-root", o.root, "-child-break", o.childBreak}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigs)
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err = <-done:
	case sig := <-sigs:
		_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		<-done
		return nil, fmt.Errorf("interrupted by %v", sig)
	}
	_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) // what the child may have left behind
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	var res childResult
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &res); err != nil {
		return nil, fmt.Errorf("%s: reading the child's result: %w", workload, err)
	}
	return &res, nil
}

// checkResult applies the rules every result must meet: every metric of the
// run's kind present, enough samples under the percentiles, and no failed op
// on a clean tree.
func checkResult(res *childResult, trace bool) error {
	if !trace && res.Samples < minSamples {
		return fmt.Errorf("%s: %d samples, a p90 needs %d; lengthen -window", res.Workload, res.Samples, minSamples)
	}
	for _, d := range metricsOf(trace) {
		if _, ok := res.Metrics[d.Name]; !ok {
			return fmt.Errorf("%s: metric %s missing", res.Workload, d.Name)
		}
	}
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d ops failed or answered wrongly", res.Workload, res.Failed, res.Attempted)
	}
	return nil
}

func printResult(res *childResult, trace bool) {
	for _, d := range metricsOf(trace) {
		fmt.Printf("%s/%s %.6g %s\n", res.Workload, d.Name, res.Metrics[d.Name], d.Unit)
	}
}

// resultLine is the last line of output of a run of one workload: the form
// the benchmark contract reads, with the metrics BENCHMARK.json registers.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResultLine(res *childResult, trace bool) resultLine {
	line := resultLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	for _, d := range metricsOf(trace) {
		if !d.unregistered {
			line.Metrics[d.Name] = metricValue{Value: res.Metrics[d.Name], Unit: d.Unit}
		}
	}
	return line
}

// runDriver runs every selected workload, o.runs times over, prints one line
// per workload and metric, and writes results.json. A run of one workload
// ends its output with that workload's resultLine.
func runDriver(o *options) error {
	selected := strings.Split(o.workloads, ",")
	for _, w := range selected {
		if !slices.Contains(workloadNames, w) {
			return fmt.Errorf("unknown workload %q (have %s)", w, strings.Join(workloadNames, ", "))
		}
	}
	if err := buildServer(o); err != nil {
		return err
	}
	out := resultsFile{Schema: resultsSchema, Env: collectEnv(o)}
	out.Env.print()
	var failures []error
	var last *childResult
	for r := range o.runs {
		rec := runRecord{Seed: o.seed, Trace: o.trace, Workloads: map[string]*childResult{}}
		// Each repetition starts one workload later, so no workload always
		// runs after the same neighbour.
		rec.Order = append(slices.Clone(selected[r%len(selected):]), selected[:r%len(selected)]...)
		for _, w := range rec.Order {
			res, err := spawnChild(o, w, o.trace)
			if err == nil {
				err = checkResult(res, o.trace)
			}
			if err != nil {
				failures = append(failures, err)
				fmt.Fprintln(os.Stderr, "bench: FAIL", err)
			}
			if res != nil {
				rec.Workloads[w] = res
				printResult(res, o.trace)
				last = res
			}
		}
		out.Runs = append(out.Runs, rec)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(o.out, "results.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("# results %s\n", path)
	if len(selected) == 1 && o.runs == 1 && last != nil {
		line, err := json.Marshal(newResultLine(last, o.trace))
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return errors.Join(failures...)
}
