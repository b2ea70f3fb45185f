package ctrl

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"t3/internal/clock"
	"t3/internal/engine/exec"
	"t3/internal/engine/plan"
	"t3/internal/obs/trace"
	"t3/internal/registry"
	"t3/internal/workload"

	t3 "t3"
)

// The deterministic test harness: every duration in these tests is a pure
// function of the plan times a drift scale, so "the workload got 4x slower"
// is literally scale=4 — the executor still runs (annotating true
// cardinalities), only the measured times are synthetic. Combined with the
// fake clock and Synchronous mode, a full drift → retrain → shadow →
// promote episode is bit-reproducible.

var ctrlInstOnce sync.Once
var ctrlInst *workload.Instance

func ctrlInstance(t testing.TB) *workload.Instance {
	t.Helper()
	ctrlInstOnce.Do(func() {
		ctrlInst = workload.MustGenerate(workload.TPCHSpec("tpch_ctrl", 0.002, 99))
	})
	return ctrlInst
}

// scaledRunPlan runs the real executor, then overwrites the measured times
// with scale x a deterministic function of the pipeline.
func scaledRunPlan(scale float64) func(*exec.Executor, *plan.Node, bool) (*exec.RunResult, error) {
	return func(ex *exec.Executor, root *plan.Node, annotate bool) (*exec.RunResult, error) {
		res, err := ex.Run(root, annotate)
		if err != nil {
			return nil, err
		}
		res.Total = 0
		for i := range res.Pipelines {
			p := &res.Pipelines[i]
			base := time.Duration(i+1)*time.Microsecond + time.Duration(p.SourceRows)*10*time.Nanosecond
			p.Duration = time.Duration(scale * float64(base))
			res.Total += p.Duration
		}
		return res, nil
	}
}

// collectConfig is the shared collection shape; only scale and workers vary
// per test.
func collectConfig(scale float64, workers int) workload.CollectConfig {
	return workload.CollectConfig{
		Workers: workers, Runs: 2, PerGroup: 1, Seed: 7,
		RunPlan: scaledRunPlan(scale),
	}
}

// scaledSource is a LabelSource pinned to one drift scale. Unlike
// WorkloadSource it does NOT rotate seeds across attempts: determinism
// tests rely on every episode seeing identical labels.
type scaledSource struct {
	inst    *workload.Instance
	scale   float64
	workers int
	// err, when non-nil, fails every collection (fault injection).
	err error
}

func (s *scaledSource) CollectLabels(int) (*workload.LabelSet, error) {
	if s.err != nil {
		return nil, s.err
	}
	return workload.CollectLabels(s.inst, collectConfig(s.scale, s.workers))
}

// testParams is a small, pinned training configuration: fast, and
// bit-identical across worker counts for the fixed seed.
func testParams() t3.Params {
	p := t3.DefaultParams()
	p.NumRounds = 30
	p.NumLeaves = 16
	p.MinDataInLeaf = 1
	p.Seed = 11
	return p
}

// seedModel trains the "live at boot" model on scale-1 labels.
func seedModel(t testing.TB) *t3.Model {
	t.Helper()
	ls, err := workload.CollectLabels(ctrlInstance(t), collectConfig(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	m, err := t3.Train(ls.Labels, t3.TrainOptions{Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// fakeSwapper is the minimal Swapper for unit tests (e2e tests use the real
// serve.Server).
type fakeSwapper struct {
	mu    sync.Mutex
	m     *t3.Model
	swaps int
}

func (f *fakeSwapper) Model() *t3.Model {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.m
}

func (f *fakeSwapper) SetModel(m *t3.Model) {
	f.mu.Lock()
	f.m = m
	f.swaps++
	f.mu.Unlock()
}

func openRegistry(t testing.TB) *registry.Registry {
	t.Helper()
	r, err := registry.Open(filepath.Join(t.TempDir(), "registry"))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// newHarness builds a Synchronous controller around a seed model serving
// scale-1 predictions, with a drifted (scale-4) label source.
func newHarness(t testing.TB, mut func(*Config)) (*Controller, *fakeSwapper, *clock.Fake) {
	t.Helper()
	fake := clock.NewFake(time.Unix(1_700_000_000, 0))
	sw := &fakeSwapper{m: seedModel(t)}
	cfg := Config{
		Registry:     openRegistry(t),
		Source:       &scaledSource{inst: ctrlInstance(t), scale: 4, workers: 2},
		Swapper:      sw,
		Clock:        fake,
		TrainOptions: t3.TrainOptions{Params: testParams()},
		MinInterval:  time.Minute,
		Synchronous:  true,
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, sw, fake
}

// driftEvent is a canned raised alarm for OnDrift tests.
func driftEvent() trace.DriftEvent {
	return trace.DriftEvent{Raised: true, Quantile: 4.2, Count: 120, Threshold: 2}
}

// samplePlans returns annotated plans for comparing model outputs.
func samplePlans(t testing.TB) []*plan.Node {
	t.Helper()
	qs := workload.GenerateQueries(ctrlInstance(t), workload.GenConfig{PerGroup: 1, Seed: 31})
	roots := make([]*plan.Node, 0, len(qs))
	for _, q := range qs {
		if err := exec.AnnotateTrueCards(q.Root); err != nil {
			t.Fatal(err)
		}
		roots = append(roots, q.Root)
	}
	return roots
}

// predictAll evaluates m over the plans; used to compare models
// bit-for-bit.
func predictAll(m *t3.Model, roots []*plan.Node) []time.Duration {
	out := make([]time.Duration, len(roots))
	for i, root := range roots {
		d, _ := m.PredictPlan(root, plan.TrueCards)
		out[i] = d
	}
	return out
}
