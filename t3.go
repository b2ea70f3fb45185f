// Package t3 is the public API of this reproduction of "T3: Accurate and
// Fast Performance Prediction for Relational Database Systems With Compiled
// Decision Trees" (Rieger & Neumann, SIGMOD 2025).
//
// T3 predicts the wall-clock execution time of a query from its annotated
// physical plan, without running it. It combines three ideas:
//
//   - Pipeline-based plan representation: the plan is decomposed into
//     pipelines; each pipeline becomes one flat feature vector and is
//     predicted individually; the query prediction is the sum (§2.2).
//   - Tuple-centric targets: the model predicts the (log-transformed) time
//     to push one tuple through the pipeline and multiplies by the
//     pipeline's input cardinality (§2.4).
//   - Compiled decision trees: a gradient-boosted ensemble evaluated in a
//     cache-packed, compiled form for microsecond-level latency (§2.6).
//
// The typical flow is: collect labels — executed, annotated plans with their
// pipeline times (internal/workload generates and executes queries,
// internal/benchdata builds the corpus) — train with Train, and predict with
// Model.PredictPlan. Trained models serialize to JSON with Save/Load; a
// loaded or trained model is compiled once, by internal/treec.Pack, into the
// layout every prediction runs on.
package t3

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"t3/internal/benchdata"
	"t3/internal/engine/plan"
	"t3/internal/feature"
	"t3/internal/gbdt"
	"t3/internal/obs"
	"t3/internal/obs/trace"
	"t3/internal/par"
	"t3/internal/qerror"
	"t3/internal/treec"
	"t3/internal/wire"
	"t3/internal/workload"
)

// Re-exported types so that API consumers can name the core concepts without
// reaching into internal packages.
type (
	// Plan is an annotated physical query plan node.
	Plan = plan.Node
	// Pipeline is one decomposed pipeline of a plan.
	Pipeline = plan.Pipeline
	// CardMode selects true or estimated cardinality annotations.
	CardMode = plan.CardMode
	// Params configures gradient-boosted-tree training.
	Params = gbdt.Params
	// Label is one executed query: its annotated plan and the per-pipeline
	// times of every timing run, the record Train learns from.
	Label = workload.Label
)

// Cardinality modes.
const (
	// TrueCards predicts from measured cardinalities ("perfect" mode).
	TrueCards = plan.TrueCards
	// EstCards predicts from estimator outputs.
	EstCards = plan.EstCards
)

// DefaultParams returns the paper's training configuration: 200 trees with
// roughly 30 leaves, MAPE objective, 20% validation split.
func DefaultParams() Params { return gbdt.DefaultParams() }

// Model is a trained T3 performance predictor. All prediction methods are
// safe for concurrent use.
type Model struct {
	reg *feature.Registry
	gbm *gbdt.Model
	// packed is the one evaluator every prediction runs on.
	packed *treec.Packed
	// workers sizes the pool every batch's kernel rows fan out over (0 = the
	// shared GOMAXPROCS-sized pool).
	workers int
	// scratches recycles PredictScratch values across PredictBatchInto
	// calls so their steady state is allocation-free.
	scratches sync.Pool
}

// SetWorkers configures how many workers every batch prediction
// (PredictBatch, PredictBatchInto, PredictBatchScratch) fans its kernel rows
// out over (0 = GOMAXPROCS via the process-wide shared pool; 1 = the calling
// goroutine alone).
func (m *Model) SetWorkers(n int) { m.workers = n }

// Registry returns the feature registry used by the model.
func (m *Model) Registry() *feature.Registry { return m.reg }

// Boosted returns the underlying gradient-boosted ensemble (the interpreted
// form, the float64 reference for Packed).
func (m *Model) Boosted() *gbdt.Model { return m.gbm }

// Compiled returns an empty treec.Flat, whose InRoundingGap is always false:
// Packed and Boosted agree on every input. It exists only for the benchmark's
// predict workload (bench/w_predict.go), which still calls it.
func (m *Model) Compiled() *treec.Flat { return &treec.Flat{} }

// Packed returns the cache-packed evaluator — the one tier behind every
// prediction path.
func (m *Model) Packed() *treec.Packed { return m.packed }

// TrainOptions configures Train.
type TrainOptions struct {
	// Params are the boosting parameters (DefaultParams when zero).
	Params Params
	// CardMode selects which cardinality annotations the feature vectors
	// are built from. The paper trains on perfect cardinalities by default
	// (§2.1) and studies estimated ones in §5.6.
	CardMode CardMode
	// Runs caps how many timing runs are used to form the median target
	// (0 = all). Figure 14 varies this.
	Runs int
}

// Train fits a T3 model on labels: every pipeline of every query becomes one
// example with a tuple-centric transformed target.
func Train(labels []*Label, opts TrainOptions) (*Model, error) {
	if len(labels) == 0 {
		return nil, errors.New("t3: no training queries")
	}
	p := opts.Params
	if p.NumRounds == 0 {
		p = DefaultParams()
	}
	reg := feature.NewDefaultRegistry()
	xs, ys := benchdata.Examples(reg, labels, opts.CardMode, opts.Runs)
	gbm, _, err := gbdt.Train(p, xs, ys, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("t3: training failed: %w", err)
	}
	gbm.FeatureNames = reg.Names()
	return NewModel(gbm)
}

// NewModel wraps a trained (or loaded) boosted ensemble with the default
// feature registry and compiles it.
func NewModel(gbm *gbdt.Model) (*Model, error) {
	reg := feature.NewDefaultRegistry()
	if gbm.NumFeatures != reg.NumFeatures() {
		return nil, fmt.Errorf("t3: model has %d features, registry has %d", gbm.NumFeatures, reg.NumFeatures())
	}
	return &Model{reg: reg, gbm: gbm, packed: treec.Pack(gbm)}, nil
}

// PipelinePrediction is the predicted execution of one pipeline.
type PipelinePrediction struct {
	// Index is the pipeline's position in execution order.
	Index int
	// PerTupleSeconds is the predicted time in seconds to push one tuple
	// into the pipeline (often far below a nanosecond, hence not a
	// time.Duration).
	PerTupleSeconds float64
	// Cardinality is the pipeline input cardinality used for scaling.
	Cardinality float64
	// Total is PerTupleSeconds × Cardinality.
	Total time.Duration
}

// PredictScratch is caller-owned reusable state for the allocation-free
// prediction path: pipeline decomposition storage, one flat feature buffer,
// and the per-pipeline prediction slice. The zero value is ready to use. A
// scratch must not be shared between concurrent predictions; keep one per
// goroutine (Model's internal paths recycle them through a sync.Pool).
type PredictScratch struct {
	feat  feature.Scratch
	preds []PipelinePrediction
	// tr, when set, receives the per-stage spans of the next prediction.
	// attached says a caller samples the scratch's predictions itself, so
	// none begins an independently sampled flight-recorder trace (see
	// AttachTrace).
	tr       *trace.Trace
	attached bool
	// Batch state (PredictBatchScratch): where each plan's rows end in the
	// feature scratch's row arena, the kernel's output per row, and the fan
	// its rows go out over the model's pool through.
	ends  []int
	evals []float64
	fan   treec.Fan
}

// AttachTrace routes the next prediction's stage spans into a caller-owned
// flight-recorder trace — the serving tier attaches its request trace so
// decode, cache, and model stages land on one timeline. A caller that
// attaches samples its own requests: from then on a prediction on this
// scratch records into the attached trace, or into none after
// AttachTrace(nil), and never begins (or publishes) one of its own.
func (s *PredictScratch) AttachTrace(tr *trace.Trace) { s.tr, s.attached = tr, true }

// PredictPlanScratch is PredictPlan over a caller-owned scratch: after the
// scratch warms up (one call), featurize → predict → per-pipeline sum run
// with zero heap allocations. The returned predictions alias the scratch and
// are valid only until its next use.
//
// The path is instrumented: every call counts into obs.Predictions and
// records its end-to-end latency. A call that records spans into a
// flight-recorder trace — its own, sampled one in trace.DefaultSampleEvery
// (trace.Default), or the one the caller attached (AttachTrace) — also times
// decompose/featurize/tree-eval into the stage histograms. All
// recording is atomic adds on preallocated histograms and pooled trace
// buffers, so the zero-alloc guarantee holds with observability on.
func (m *Model) PredictPlanScratch(root *Plan, mode CardMode, s *PredictScratch) (time.Duration, []PipelinePrediction) {
	start := time.Now()
	tr := s.tr
	owned := false
	if !s.attached {
		tr = trace.Default.Begin(trace.KindPredict, uint8(mode))
		owned = tr != nil
	}
	t0 := start
	if owned {
		// The trace's clock started inside Begin, after start was taken;
		// re-baseline so span offsets cannot go negative.
		t0 = tr.Start()
	}
	pipelines := plan.DecomposeInto(root, &s.feat.Pipes)
	if tr != nil {
		obs.PredictDecompose.Since(t0)
		tr.Record(trace.StageDecompose, t0, 0)
		t0 = time.Now()
	}
	vecs := m.reg.EncodeDecomposed(&s.feat, pipelines, mode)
	if tr != nil {
		obs.PredictFeaturize.Since(t0)
		tr.Record(trace.StageFeaturize, t0, 0)
		t0 = time.Now()
	}
	s.preds = s.preds[:0]
	var total time.Duration
	for i, v := range vecs {
		pred := m.predictVec(v, pipelines[i], mode)
		pred.Index = pipelines[i].Index
		total += pred.Total
		s.preds = append(s.preds, pred)
	}
	if tr != nil {
		obs.PredictTreeEval.Since(t0)
		tr.Record(trace.StageTreeEval, t0, uint32(len(vecs)))
	}
	obs.Predictions.Inc()
	obs.PredictLatency.Since(start)
	if owned {
		tr.Fingerprint = trace.KeyFingerprint(wire.PlanKey(root, mode))
		tr.PredictedNs = total.Nanoseconds()
		trace.Default.Publish(tr)
	}
	return total, s.preds
}

// PredictPlan predicts the execution time of a whole query: it decomposes
// the plan into pipelines, predicts each, and sums (Figure 2). Latency-bound
// callers should hold a PredictScratch and use PredictPlanScratch instead —
// same results, zero steady-state allocations.
func (m *Model) PredictPlan(root *Plan, mode CardMode) (time.Duration, []PipelinePrediction) {
	var s PredictScratch
	return m.PredictPlanScratch(root, mode, &s)
}

// getScratch hands out a recycled scratch for internal prediction paths.
func (m *Model) getScratch() *PredictScratch {
	if s, ok := m.scratches.Get().(*PredictScratch); ok {
		return s
	}
	return &PredictScratch{}
}

// PredictBatch predicts the execution time of many plans at once through
// the batch kernel (see PredictBatchScratch), its rows fanned across the
// worker pool (see SetWorkers). out[i] corresponds to roots[i].
// For throughput-bound callers — schedulers admitting a queue of queries,
// join enumeration over candidate plans — this replaces the
// one-plan-at-a-time PredictPlan loop.
func (m *Model) PredictBatch(roots []*Plan, mode CardMode) []time.Duration {
	out := make([]time.Duration, len(roots))
	m.PredictBatchInto(roots, mode, out)
	return out
}

// PredictBatchInto is PredictBatch into a caller-owned output slice
// (len(out) must equal len(roots)): PredictBatchScratch over a recycled
// scratch. Nothing is constructed per call.
func (m *Model) PredictBatchInto(roots []*Plan, mode CardMode, out []time.Duration) {
	s := m.getScratch()
	m.PredictBatchScratch(roots, mode, out, s)
	m.scratches.Put(s)
}

// PredictBatchScratch is PredictBatchInto over a caller-owned scratch. The
// kernel's rows fan out over the model's worker pool (see SetWorkers) in
// tasks of 32 rows once there are two tasks' worth; the caller runs tasks
// too, and takes every task no parked worker does, so a busy pool costs it
// nothing but the offer. After the scratch warms up it allocates nothing,
// fanned or not.
//
// The batch is priced in three passes: every plan is decomposed and
// featurized into one row-major arena, one row per pipeline, with the row's
// source cardinality and each plan's last row kept beside it; one
// Packed.PredictRowsInto call evaluates all rows × all trees, eight rows at
// a time, the decision nodes all eight fail applied once for the eight — so
// a plan's pipelines, adjacent in the arena, and neighbouring plans of a
// kind cost less together than apart; one scalar pass transforms, scales and
// sums the rows of each plan. Which task, and so which worker, scores a row
// changes nothing about its value. The kernel's rows are bit-identical to
// Packed.Predict whatever block they fall in and the last pass adds
// pipelines in PredictPlan's order, so out[i] equals PredictPlan(roots[i])
// to the nanosecond.
//
// Every plan counts into obs.Predictions; the latency and per-stage
// histograms describe single predictions and are fed by PredictPlanScratch
// only.
func (m *Model) PredictBatchScratch(roots []*Plan, mode CardMode, out []time.Duration, s *PredictScratch) {
	if len(out) != len(roots) {
		panic(fmt.Sprintf("t3: PredictBatchScratch out has len %d, want %d", len(out), len(roots)))
	}
	obs.PredictBatches.Inc()
	obs.PredictBatchSize.Record(uint64(len(roots)))
	obs.Predictions.Add(uint64(len(roots)))

	s.feat.ResetRows()
	s.ends = s.ends[:0]
	for _, root := range roots {
		s.ends = append(s.ends, m.reg.AppendPlanRows(&s.feat, root, mode))
	}
	rows, cards := s.feat.Rows()
	if cap(s.evals) < len(cards) {
		s.evals = make([]float64, len(cards), 2*len(cards))
	}
	s.evals = s.evals[:len(cards)]
	s.fan.Pool = par.Sized(m.workers)
	m.packed.PredictRowsInto(rows, m.reg.NumFeatures(), s.evals, &s.fan)

	r := 0
	for i, end := range s.ends {
		var total time.Duration
		for ; r < end; r++ {
			total += pipelineTotal(benchdata.InverseTarget(s.evals[r]), cards[r])
		}
		out[i] = total
	}
}

// pipelineTotal scales a per-tuple prediction in seconds by the pipeline's
// source cardinality. Both prediction paths round through it, pipeline by
// pipeline, which is what keeps them equal to the nanosecond.
func pipelineTotal(perTuple, card float64) time.Duration {
	return time.Duration(perTuple * card * float64(time.Second))
}

func (m *Model) predictVec(v []float64, p *Pipeline, mode CardMode) PipelinePrediction {
	t := m.packed.Predict(v)
	perTuple := benchdata.InverseTarget(t)
	card := feature.SourceCard(p, mode)
	return PipelinePrediction{
		PerTupleSeconds: perTuple,
		Cardinality:     card,
		Total:           pipelineTotal(perTuple, card),
	}
}

// PredictInterpreted predicts a whole query using the interpreted (struct
// walking) evaluator instead of the packed one — the "T3 interpreted" row
// of Table 1, and the reference the benchmark checks predictions against.
func (m *Model) PredictInterpreted(root *Plan, mode CardMode) time.Duration {
	vecs, pipelines := m.reg.PlanVectors(root, mode)
	var total float64
	for i, v := range vecs {
		perTuple := benchdata.InverseTarget(m.gbm.Predict(v))
		total += perTuple * feature.SourceCard(pipelines[i], mode)
	}
	return time.Duration(total * float64(time.Second))
}

// RecordObserved scores one prediction against the measured execution time
// of the same plan and records the q-error into the online drift histogram
// (obs.QErrorDrift). Serving systems call this whenever ground truth
// becomes available — the engine ran a plan that was previously predicted —
// so estimation-error drift is visible on /metrics before it rots accuracy.
func RecordObserved(predicted, actual time.Duration) float64 {
	q := qerror.QError(predicted.Seconds(), actual.Seconds())
	obs.QErrorObservations.Inc()
	obs.QErrorDrift.ObserveFloat(q)
	return q
}

// RecordObservedPlan is RecordObserved when the mispredicted plan is still
// at hand: besides feeding the drift histogram it offers the plan to the
// worst-misprediction exemplar store (trace.Exemplars), which captures the
// top-K offenders as replayable wire frames for /debug/worst.
func RecordObservedPlan(root *Plan, mode CardMode, predicted, actual time.Duration) float64 {
	q := RecordObserved(predicted, actual)
	trace.Exemplars.Offer(root, mode, predicted.Nanoseconds(), actual.Nanoseconds(), time.Now())
	return q
}

// Save writes the model to a JSON file.
func (m *Model) Save(path string) error { return m.gbm.Save(path) }

// Load reads a model written by Save.
func Load(path string) (*Model, error) {
	gbm, err := gbdt.Load(path)
	if err != nil {
		return nil, err
	}
	return NewModel(gbm)
}

// Featurize exposes the pipeline feature encoding for tooling: it returns
// the feature vectors and pipelines of a plan.
func Featurize(root *Plan, mode CardMode) ([][]float64, []*Pipeline) {
	return feature.NewDefaultRegistry().PlanVectors(root, mode)
}
