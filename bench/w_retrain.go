package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"t3"
	"t3/internal/benchdata"
	"t3/internal/engine/exec"
	"t3/internal/engine/plan"
	"t3/internal/feature"
	"t3/internal/gbdt"
	"t3/internal/qerror"
	"t3/internal/registry"
	"t3/internal/serve"
	"t3/internal/workload"
)

// Retraining is sized for an op of roughly 50 ms, so that a window of a few
// seconds holds the hundred ops a p90 needs.
const (
	retrainRounds   = 40
	retrainScale    = 0.002 // TPC-H-lite: 1200 lineitem rows
	retrainPerGroup = 40    // label queries per structure group
	retrainHoldout  = 0.25
)

// recordedHoldoutP50 is the hold-out q-error median of the model this step
// trains at the commit that added the benchmark (1.09 to 1.14 over seeds 1
// to 12, median 1.10). An op whose candidate exceeds 1.25 times this fails: a
// faster trainer that learns worse loses the benchmark instead of winning
// it. The contract lets BENCHMARK.json hold no such value, so it is recorded
// here.
const recordedHoldoutP50 = 1.10

// syntheticRun executes the plan for real — the labels need its true
// cardinalities — and then replaces every measured pipeline time with a pure
// function of the plan, so the label set, and with it the trained model, is
// the same on every run of one seed.
func syntheticRun(ex *exec.Executor, root *plan.Node, annotate bool) (*exec.RunResult, error) {
	res, err := ex.Run(root, annotate)
	if err != nil {
		return nil, err
	}
	res.Total = 0
	for i := range res.Pipelines {
		p := &res.Pipelines[i]
		p.Duration = time.Duration(i+1)*time.Microsecond + time.Duration(p.SourceRows)*10*time.Nanosecond
		res.Total += p.Duration
	}
	return res, nil
}

// retrainInst is retrain: the promotion step of internal/ctrl — train a
// candidate, score it on held-out labels, write it to the registry, load it
// back verified, swap it into a serving core — on a fixed label set.
type retrainInst struct {
	train    []*benchdata.BenchedQuery
	holdout  *workload.LabelSet
	params   t3.Params
	reg      *registry.Registry
	dir      string
	core     *serve.Server
	maxQ     float64
	collectS float64
	labels   int
}

func setupRetrain(ctx *setupCtx) (instance, error) {
	in, err := workload.Generate(workload.TPCHSpec("tpch_retrain", retrainScale, ctx.seed))
	if err != nil {
		return nil, err
	}
	labels, err := workload.CollectLabels(in, workload.CollectConfig{
		Workers: runtime.GOMAXPROCS(0), Runs: 2, PerGroup: retrainPerGroup, Seed: tmplSeedTrain, RunPlan: syntheticRun,
	})
	if err != nil {
		return nil, err
	}
	train, holdout := labels.Split(retrainHoldout)
	live, err := t3.Load(ctx.modelPath())
	if err != nil {
		return nil, err
	}
	r := &retrainInst{
		train: benchdata.FromLabels(train), holdout: holdout, params: t3.DefaultParams(),
		core: serve.New(live, serve.Config{}), maxQ: 1.25 * recordedHoldoutP50,
		collectS: labels.Elapsed.Seconds(), labels: len(labels.Labels),
	}
	r.params.NumRounds = retrainRounds
	if err := os.MkdirAll(ctx.outDir, 0o755); err != nil {
		return nil, err
	}
	if r.dir, err = os.MkdirTemp(ctx.outDir, "registry-"); err != nil {
		return nil, err
	}
	if r.reg, err = registry.Open(filepath.Join(r.dir, "models")); err != nil {
		os.RemoveAll(r.dir)
		return nil, err
	}
	return r, nil
}

func (r *retrainInst) conns() int          { return 1 }
func (r *retrainInst) traceSteps() int     { return 5 }
func (r *retrainInst) server() *serverProc { return nil }
func (r *retrainInst) corrupt()            { r.maxQ = 0 }

func (r *retrainInst) close() float64 {
	os.RemoveAll(r.dir)
	return 0
}

// holdoutQErrors scores m on the held-out labels, ascending.
func (r *retrainInst) holdoutQErrors(m *t3.Model) []float64 {
	var s t3.PredictScratch
	qs := make([]float64, 0, len(r.holdout.Labels))
	for _, l := range r.holdout.Labels {
		pred, _ := m.PredictPlanScratch(l.Root, plan.TrueCards, &s)
		actual := slices.Sorted(slices.Values(l.Totals))[len(l.Totals)/2]
		qs = append(qs, qerror.QError(pred.Seconds(), actual.Seconds()))
	}
	slices.Sort(qs)
	return qs
}

// promote is the op. span brackets each stage; the untraced run passes a
// no-op.
func (r *retrainInst) promote(span func(name string, f func() error) error) error {
	var cand *t3.Model
	err := span("t3.Train", func() (err error) {
		cand, err = t3.Train(r.train, t3.TrainOptions{Params: r.params})
		return err
	})
	if err != nil {
		return err
	}
	err = span("holdout.score", func() error {
		if q := qerror.Percentile(r.holdoutQErrors(cand), 0.5); q > r.maxQ {
			return fmt.Errorf("hold-out q-error p50 %.3f above %.3f", q, r.maxQ)
		}
		return nil
	})
	if err != nil {
		return err
	}
	var version int
	err = span("registry.Put", func() (err error) {
		version, err = r.reg.Put(&registry.Artifact{
			Meta: registry.Meta{Source: "bench", TrainLabels: len(r.train), HoldoutLabels: len(r.holdout.Labels),
				HoldoutFingerprint: r.holdout.Fingerprint()},
			GBM: cand.Boosted(),
		})
		return err
	})
	if err != nil {
		return err
	}
	var art *registry.Artifact
	if err = span("registry.Load", func() (err error) { art, err = r.reg.Load(version); return err }); err != nil {
		return err
	}
	var next *t3.Model
	if err = span("t3.NewModel", func() (err error) { next, err = t3.NewModel(art.GBM); return err }); err != nil {
		return err
	}
	_ = span("serve.Server.SetModel", func() error { r.core.SetModel(next); return nil })
	// As ctrl does after every promotion; it also keeps the directory small.
	return span("registry.GC", func() error { _, err := r.reg.GC(2); return err })
}

func (r *retrainInst) step(_, _ int, rec *recorder) {
	t0 := time.Now()
	err := r.promote(func(_ string, f func() error) error { return f() })
	rec.done(t0, err == nil)
}

func (r *retrainInst) traced(_, i int, tr *tracer, rec *recorder) {
	tr.nextOp(i)
	t0 := time.Now()
	tr.begin("retrain.promote")
	err := r.promote(func(name string, f func() error) error {
		tr.begin(name)
		defer tr.end()
		return f()
	})
	tr.end()
	rec.done(t0, err == nil)
	// t3.Train once more from the calls it is made of.
	tr.begin("mirror")
	tr.begin("benchdata.Examples")
	xs, ys := benchdata.Examples(feature.NewDefaultRegistry(), r.train, plan.TrueCards, 0)
	tr.end()
	tr.begin("gbdt.Train")
	gbm, _, terr := gbdt.Train(r.params, xs, ys, nil, nil)
	tr.end()
	if terr == nil {
		tr.begin("t3.NewModel")
		_, terr = t3.NewModel(gbm)
		tr.end()
	}
	tr.end()
	if terr != nil {
		rec.attempted++
		rec.failed++
	}
}

func (r *retrainInst) layers(out map[string]float64) error {
	const reps = 3
	reg := feature.NewDefaultRegistry()
	var xs [][]float64
	var ys []float64
	t := time.Now()
	for range reps {
		xs, ys = benchdata.Examples(reg, r.train, plan.TrueCards, 0)
	}
	out["benchdata.examples_ms"] = time.Since(t).Seconds() * 1e3 / reps
	var gbm *gbdt.Model
	t = time.Now()
	for range reps {
		var err error
		if gbm, _, err = gbdt.Train(r.params, xs, ys, nil, nil); err != nil {
			return err
		}
	}
	trainS := time.Since(t).Seconds() / reps
	out["gbdt.train_ms"] = trainS * 1e3
	out["gbdt.round_ms"] = trainS * 1e3 / float64(len(gbm.Trees))
	out["gbdt.rows_per_s"] = float64(len(xs)*len(gbm.Trees)) / trainS

	gbm.FeatureNames = reg.Names()
	m, err := t3.NewModel(gbm)
	if err != nil {
		return err
	}
	qs := r.holdoutQErrors(m)
	out["retrain.holdout_qerror_p50"] = qerror.Percentile(qs, 0.5)
	out["retrain.holdout_qerror_p90"] = qerror.Percentile(qs, 0.9)

	var putS, loadS float64
	var version int
	for range reps {
		t = time.Now()
		if version, err = r.reg.Put(&registry.Artifact{Meta: registry.Meta{Source: "bench"}, GBM: gbm}); err != nil {
			return err
		}
		putS += time.Since(t).Seconds()
		t = time.Now()
		if _, err = r.reg.Load(version); err != nil {
			return err
		}
		loadS += time.Since(t).Seconds()
	}
	out["registry.put_ms"] = putS * 1e3 / reps
	out["registry.load_ms"] = loadS * 1e3 / reps
	st, err := os.Stat(r.reg.Path(version))
	if err != nil {
		return err
	}
	out["registry.artifact_kib"] = float64(st.Size()) / 1024
	out["workload.collect_labels_per_s"] = float64(r.labels) / r.collectS
	return nil
}
