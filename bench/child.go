package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// childConfig is what one workload process is told by the driver.
type childConfig struct {
	workload string
	seed     int64
	window   time.Duration
	warmup   time.Duration
	trace    bool
	outDir   string
	root     string // repository root: models/ and cmd/t3serve live here
	serveBin string
	broken   bool // -child-break: corrupt the reference answers (tests only)
}

func (c *childConfig) modelPath() string { return filepath.Join(c.root, "models", "t3_default.json") }

// setupCtx accompanies one set-up of one workload.
type setupCtx struct {
	*childConfig
	// withServer is false when the instance is built only for its in-process
	// layer measurements.
	withServer bool
	refNs      int64
}

// reference runs f, which computes answers the checks compare against, and
// keeps its time out of setup_s: set-up time is the program's (model load and
// compile, instance and payload generation, server boot), not the checker's.
func (c *setupCtx) reference(f func() error) error {
	t := time.Now()
	err := f()
	c.refNs += int64(time.Since(t))
	return err
}

// instance is one set-up workload: inputs generated, references computed,
// program under test running.
type instance interface {
	// conns is the number of closed-loop callers.
	conns() int
	// step runs op step i of caller c and records every op in it.
	step(c, i int, rec *recorder)
	// traced is step with a span around each layer call.
	traced(c, i int, tr *tracer, rec *recorder)
	// traceSteps is the fixed number of steps per caller a traced run replays.
	traceSteps() int
	// layers measures this workload's layers on its own inputs, in process.
	layers(out map[string]float64) error
	// server is the t3serve under test, or nil.
	server() *serverProc
	// corrupt falsifies the reference answers, so that every later op must
	// fail its check. Only -child-break and the tests call it: it shows that
	// each check can fail.
	corrupt()
	// close stops what set-up started. It returns the peak resident set of
	// the server in MiB, or 0 when the process under test is this one.
	close() float64
}

// workloadNames lists the workloads in the order a pass runs them.
var workloadNames = []string{"predict_inproc", "serve_rtt_hot", "serve_batch_miss", "plan_enum", "engine_exec", "retrain"}

func setupWorkload(name string, ctx *setupCtx) (instance, error) {
	switch name {
	case "predict_inproc":
		return setupPredict(ctx)
	case "serve_rtt_hot":
		return setupServe(ctx, serveHot)
	case "serve_batch_miss":
		return setupServe(ctx, serveMiss)
	case "plan_enum":
		return setupPlanEnum(ctx)
	case "engine_exec":
		return setupEngineExec(ctx)
	case "retrain":
		return setupRetrain(ctx)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// recorder collects the ops of one caller in one phase: exact latencies, not
// histogram buckets.
type recorder struct {
	lat       []int64
	attempted int64
	failed    int64
}

func newRecorder(capacity int) *recorder {
	return &recorder{lat: make([]int64, 0, capacity)}
}

// done records one op that began at t0 and has just completed. A wrong
// answer counts as failed and contributes no latency.
func (r *recorder) done(t0 time.Time, correct bool) {
	r.doneAt(t0, time.Now(), correct)
}

func (r *recorder) doneAt(t0, t1 time.Time, correct bool) {
	r.attempted++
	if !correct {
		r.failed++
		return
	}
	r.lat = append(r.lat, int64(t1.Sub(t0)))
}

// phase is the outcome of one stretch of load: what each caller recorded,
// and the totals.
type phase struct {
	callers   []*recorder
	samples   int
	attempted int64
	failed    int64
	elapsed   time.Duration
}

// meanUs is the mean latency of the phase's ops.
func (ph phase) meanUs() float64 {
	var sum int64
	for _, r := range ph.callers {
		for _, l := range r.lat {
			sum += l
		}
	}
	return float64(sum) / float64(ph.samples) / 1e3
}

// runLoad drives the instance closed-loop — every caller issues its next op
// when the previous one has answered — until stop reports true. next[c] is
// caller c's step counter and is advanced, so consecutive phases continue
// one cycle through the inputs. body is inst.step or a traced variant.
func runLoad(inst instance, next []int, capacity int, stop func(c, steps int) bool, body func(c, i int, rec *recorder)) phase {
	start := time.Now()
	recs := make([]*recorder, inst.conns())
	var wg sync.WaitGroup
	for c := range recs {
		recs[c] = newRecorder(capacity)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for steps := 0; !stop(c, steps); steps++ {
				body(c, next[c], recs[c])
				next[c]++
			}
		}()
	}
	wg.Wait()
	ph := phase{callers: recs, elapsed: time.Since(start)}
	for _, r := range recs {
		ph.samples += len(r.lat)
		ph.attempted += r.attempted
		ph.failed += r.failed
	}
	return ph
}

// runFor is runLoad for a fixed time.
func runFor(inst instance, next []int, d time.Duration, capacity int) phase {
	var stop atomic.Bool
	t := time.AfterFunc(d, func() { stop.Store(true) })
	defer t.Stop()
	return runLoad(inst, next, capacity, func(int, int) bool { return stop.Load() }, inst.step)
}

// childResult is what a workload process reports to the driver.
type childResult struct {
	Workload  string             `json:"workload"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Samples   int                `json:"samples"`
	Conns     int                `json:"conns"`
	ServeArgs []string           `json:"t3serve_flags,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Trace     *traceSummary      `json:"trace,omitempty"`
}

// setupRepeats is how many times a run sets the workload up; setup_s is the
// median, so one slow process start or page-cache miss does not decide it.
const setupRepeats = 3

// forgetSetupRSS makes this process's peak resident set start over from what
// the workload keeps: it returns freed memory to the system and resets the
// kernel's high-water mark. Set-up and the reference answers leave garbage
// behind — for engine_exec hundreds of MiB, more or less as the collector's
// timing falls — which is the benchmark's, not the program's. Where the mark
// cannot be reset (not Linux, /proc read-only) the peak stays the lifetime's.
func forgetSetupRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// selfPeakMiB is this process's peak resident set since forgetSetupRSS.
func selfPeakMiB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			// "VmHWM:	  207228 kB"
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// timedSetup sets the workload up and returns how long that took without the
// reference answers.
func timedSetup(cfg *childConfig, name string, withServer bool) (instance, float64, error) {
	ctx := &setupCtx{childConfig: cfg, withServer: withServer}
	t := time.Now()
	inst, err := setupWorkload(name, ctx)
	if err != nil {
		return nil, 0, fmt.Errorf("setting up %s: %w", name, err)
	}
	return inst, (time.Since(t) - time.Duration(ctx.refNs)).Seconds(), nil
}

// runChild measures one workload in this process and returns its metrics:
// the end-to-end ones, or with cfg.trace the per-layer ones.
func runChild(cfg *childConfig) (*childResult, error) {
	inst, setupS, err := timedSetup(cfg, cfg.workload, true)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			inst.close()
		}
	}()
	if cfg.broken {
		inst.corrupt()
	}
	res := &childResult{Workload: cfg.workload, Conns: inst.conns(), Metrics: map[string]float64{}}
	if s := inst.server(); s != nil {
		res.ServeArgs = s.flags
	}
	if cfg.trace {
		if err := runTraced(cfg, inst, res); err != nil {
			return nil, err
		}
		closed = true
		inst.close()
		return res, nil
	}

	forgetSetupRSS()
	ws, win, err := measure(cfg.workload, inst, cfg.warmup, cfg.window)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed, res.Samples = win.attempted, win.failed, ws.samples
	selfRSS := selfPeakMiB()
	closed = true
	serverRSS := inst.close()

	setups := []float64{setupS}
	for len(setups) < setupRepeats {
		again, s, err := timedSetup(cfg, cfg.workload, true)
		if err != nil {
			return nil, err
		}
		again.close()
		setups = append(setups, s)
	}
	res.Metrics["ops_per_s"] = ws.opsPerS
	res.Metrics["op_p50_us"] = ws.p50us
	res.Metrics["op_p90_us"] = ws.p90us
	res.Metrics["failed_share"] = float64(res.Failed) / float64(res.Attempted)
	res.Metrics["setup_s"] = median(setups)
	res.Metrics["rss_peak_mib"] = serverRSS
	if serverRSS == 0 {
		res.Metrics["rss_peak_mib"] = selfRSS
	}
	return res, nil
}

// measure is the untraced run of a set-up workload: warm-up, then the window
// the end-to-end metrics come from. For a serve workload it also holds the
// server's own counters against the hit share the workload is built to have.
func measure(workload string, inst instance, warmup, window time.Duration) (windowStats, phase, error) {
	next := make([]int, inst.conns())
	for c := range next {
		next[c] = c * 7919 // callers start at different points of the cycle
	}
	warm := runFor(inst, next, warmup, 1024)
	// Room for the window's samples, from the warm-up's rate: the timed loop
	// should append, not grow.
	rate := float64(warm.samples) / warm.elapsed.Seconds() / float64(inst.conns())
	capacity := int(rate*window.Seconds()*1.3) + 1024
	before, err := serverCounters(inst)
	if err != nil {
		return windowStats{}, phase{}, err
	}
	runtime.GC() // start every window from a collected heap
	win := runFor(inst, next, window, capacity)
	after, err := serverCounters(inst)
	if err != nil {
		return windowStats{}, phase{}, err
	}
	ws := summarise(win.callers, int64(win.elapsed))
	if before != nil {
		if err := checkHitShare(workload, serveObserved(before, after, ws.meanUs, win.elapsed)); err != nil {
			return ws, win, err
		}
	}
	return ws, win, nil
}

func serverCounters(inst instance) (*serverSnapshot, error) {
	if s := inst.server(); s != nil {
		return s.snapshot()
	}
	return nil, nil
}

// checkHitShare enforces what the two serve workloads are built to be: one
// that the cache answers, one that it cannot.
func checkHitShare(workload string, obs map[string]float64) error {
	hit := obs["predcache.hit_share"]
	switch {
	case workload == "serve_rtt_hot" && hit < 0.99:
		return fmt.Errorf("serve_rtt_hot: cache hit share %.4f, want >= 0.99", hit)
	case workload == "serve_batch_miss" && hit > 0.01:
		return fmt.Errorf("serve_batch_miss: cache hit share %.4f, want <= 0.01", hit)
	}
	return nil
}

// runTraced is the -trace run of one workload: a fixed number of ops replayed
// untraced and then with spans, the span file, and every per-layer metric.
func runTraced(cfg *childConfig, inst instance, res *childResult) error {
	steps := inst.traceSteps()
	next := make([]int, inst.conns())
	for c := range next {
		next[c] = c * 7919
	}
	// Every replay goes on where the last one stopped: one that started the
	// cycle over would find its own keys in the cache.
	replay := func(body func(c, i int, rec *recorder)) phase {
		return runLoad(inst, next, steps*64, func(_, done int) bool { return done >= steps }, body)
	}
	newTracers := func() []*tracer {
		epoch := time.Now()
		ts := make([]*tracer, inst.conns())
		for c := range ts {
			ts[c] = newTracer(epoch, steps*16)
		}
		return ts
	}
	// Warm the real path, and the mirrored one (its caches, its scratch).
	replay(inst.step)
	tracers := newTracers()
	replay(func(c, i int, rec *recorder) { inst.traced(c, i, tracers[c], rec) })

	before, err := serverCounters(inst)
	if err != nil {
		return err
	}
	plain := replay(inst.step)
	after, err := serverCounters(inst)
	if err != nil {
		return err
	}
	tracers = newTracers()
	traced := replay(func(c, i int, rec *recorder) { inst.traced(c, i, tracers[c], rec) })
	if plain.samples == 0 || traced.samples == 0 {
		return errors.New("traced replay completed no op")
	}
	// The overhead of tracing is a few per cent at most, less than what a
	// replay gains by running later and warmer. A second pair in the other
	// order cancels that.
	discard := newTracers()
	traced2 := replay(func(c, i int, rec *recorder) { inst.traced(c, i, discard[c], rec) })
	plain2 := replay(inst.step)
	overhead := (traced.meanUs()+traced2.meanUs())/(plain.meanUs()+plain2.meanUs()) - 1

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	spans := mergeTracers(tracers)
	sum, err := writeTrace(filepath.Join(cfg.outDir, "trace."+cfg.workload+".json"), cfg.workload, spans)
	if err != nil {
		return err
	}
	if d := sum.SelfOverRoot - 1; d > 0.05 || d < -0.05 {
		return fmt.Errorf("%s: span self times sum to %.3f of the root spans", cfg.workload, sum.SelfOverRoot)
	}
	res.Trace = &sum
	res.Attempted = plain.attempted + traced.attempted
	res.Failed = plain.failed + traced.failed

	m := res.Metrics
	ws := summarise(plain.callers, int64(plain.elapsed))
	res.Samples = ws.samples
	m["client.op_p99_us"] = ws.p99us
	m["client.op_max_us"] = ws.maxUs
	m["client.samples"] = float64(ws.samples)
	m["env.conns"] = float64(inst.conns())
	m["trace.overhead_share"] = overhead

	// Layers that every run measures, each on the inputs of the workload
	// that exercises it.
	for _, name := range []string{"predict_inproc", "serve_rtt_hot", "plan_enum", "engine_exec", "retrain"} {
		probe, own := inst, name == cfg.workload || (name == "serve_rtt_hot" && cfg.workload == "serve_batch_miss")
		if !own {
			if probe, _, err = timedSetup(cfg, name, false); err != nil {
				return err
			}
		}
		err := probe.layers(m)
		if !own {
			probe.close()
		}
		if err != nil {
			return fmt.Errorf("measuring the layers of %s: %w", name, err)
		}
	}

	// What only a running server can tell: its own request time, cache and
	// coalescer counters, GC. A serve workload reports its own server's; the
	// others report those of a short serve_rtt_hot run, so that every traced
	// run carries a measured value for every layer.
	var obs map[string]float64
	if before != nil {
		obs = serveObserved(before, after, ws.meanUs, plain.elapsed)
		if err := checkHitShare(cfg.workload, obs); err != nil {
			return err
		}
	} else {
		hot, _, err := timedSetup(cfg, "serve_rtt_hot", true)
		if err != nil {
			return err
		}
		hnext := make([]int, hot.conns())
		runFor(hot, hnext, 300*time.Millisecond, 1024)
		b, err := serverCounters(hot)
		if err != nil {
			hot.close()
			return err
		}
		ph := runFor(hot, hnext, time.Second, 1<<16)
		a, err := serverCounters(hot)
		hot.close()
		if err != nil {
			return err
		}
		obs = serveObserved(b, a, ph.meanUs(), ph.elapsed)
	}
	for k, v := range obs {
		m[k] = v
	}
	m["serve.mirror_gap_us"] = m["serve.server_mean_us"] - mirroredServeUs(cfg.workload, m)
	return nil
}
