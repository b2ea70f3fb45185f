package main

import (
	"fmt"
	"runtime"
	"time"

	"t3"
	"t3/internal/benchdata"
	"t3/internal/engine/plan"
	"t3/internal/feature"
	"t3/internal/treec"
)

// predictMirror is Model.PredictPlanScratch rebuilt from the public calls of
// the layers under it — plan.DecomposeInto, Registry.EncodeDecomposed,
// Packed.Predict — with a span around each. The traced runs time the real
// call and this mirror side by side and require the two answers to be equal,
// so the spans are known to describe the work the real call does.
type predictMirror struct {
	m    *t3.Model
	feat feature.Scratch
}

func (pm *predictMirror) predict(root *plan.Node, tr *tracer) time.Duration {
	tr.begin("plan.DecomposeInto")
	ps := plan.DecomposeInto(root, &pm.feat.Pipes)
	tr.end()
	tr.begin("feature.EncodeDecomposed")
	vecs := pm.m.Registry().EncodeDecomposed(&pm.feat, ps, plan.TrueCards)
	tr.end()
	packed := pm.m.Packed()
	var total time.Duration
	for i, v := range vecs {
		tr.begin("treec.Packed.Predict")
		t := packed.Predict(v)
		tr.end()
		perTuple := benchdata.InverseTarget(t)
		total += time.Duration(perTuple * feature.SourceCard(ps[i], plan.TrueCards) * float64(time.Second))
	}
	return total
}

// predictInst is predict_inproc: one caller, one plan per op, nothing between
// the caller and the model.
type predictInst struct {
	m       *t3.Model
	plans   []*plan.Node
	want    []time.Duration // the interpreter's answer
	tol     []time.Duration
	order   []int
	scratch t3.PredictScratch
	mirror  predictMirror
	loadMs  float64
}

// minPredictPlans is the smallest plan population the workload accepts.
const minPredictPlans = 200

func setupPredict(ctx *setupCtx) (instance, error) {
	t := time.Now()
	m, err := t3.Load(ctx.modelPath())
	if err != nil {
		return nil, err
	}
	p := &predictInst{m: m, mirror: predictMirror{m: m}, loadMs: time.Since(t).Seconds() * 1e3}
	all, err := buildPlans(ctx.seed)
	if err != nil {
		return nil, err
	}
	err = ctx.reference(func() error {
		for _, root := range all {
			// The packed tier rounds thresholds to float32; a feature value
			// inside a rounding gap may legitimately take the other branch
			// (see treec.Packed). Such plans have no exact reference.
			vecs, pipes := m.Registry().PlanVectors(root, plan.TrueCards)
			gap := false
			for _, v := range vecs {
				gap = gap || m.Compiled().InRoundingGap(v)
			}
			if gap {
				continue
			}
			want := m.PredictInterpreted(root, plan.TrueCards)
			p.plans = append(p.plans, root)
			p.want = append(p.want, want)
			// PredictPlan rounds each pipeline to whole nanoseconds and sums
			// in another order than the interpreter (the tolerance t3's own
			// TestCompiledMatchesInterpreted uses).
			p.tol = append(p.tol, time.Duration(len(pipes)+1)+time.Duration(1e-6*float64(want)))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(p.plans) < minPredictPlans {
		return nil, fmt.Errorf("only %d plans outside the rounding gap, need %d", len(p.plans), minPredictPlans)
	}
	p.order = shuffled(len(p.plans), ctx.seed)
	return p, nil
}

func (p *predictInst) conns() int          { return 1 }
func (p *predictInst) traceSteps() int     { return 10 * len(p.plans) }
func (p *predictInst) server() *serverProc { return nil }
func (p *predictInst) close() float64      { return 0 }

func (p *predictInst) corrupt() {
	for k := range p.want {
		p.want[k] += time.Millisecond
	}
}

func (p *predictInst) correct(k int, got time.Duration) bool {
	d := got - p.want[k]
	return d <= p.tol[k] && -d <= p.tol[k]
}

func (p *predictInst) step(_, i int, rec *recorder) {
	k := p.order[i%len(p.order)]
	t0 := time.Now()
	got, _ := p.m.PredictPlanScratch(p.plans[k], plan.TrueCards, &p.scratch)
	rec.done(t0, p.correct(k, got))
}

func (p *predictInst) traced(_, i int, tr *tracer, rec *recorder) {
	k := p.order[i%len(p.order)]
	tr.nextOp(i)
	t0 := time.Now()
	tr.begin("t3.Model.PredictPlanScratch")
	got, _ := p.m.PredictPlanScratch(p.plans[k], plan.TrueCards, &p.scratch)
	tr.end()
	t1 := time.Now()
	tr.begin("mirror")
	mirrored := p.mirror.predict(p.plans[k], tr)
	tr.end()
	rec.doneAt(t0, t1, p.correct(k, got) && mirrored == got)
}

// mallocs returns the number of heap objects this process has allocated.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func (p *predictInst) layers(out map[string]float64) error {
	const passes = 10
	tr := newTracer(time.Now(), passes*len(p.plans)*8)
	rec := newRecorder(passes * len(p.plans))
	for i := range passes * len(p.plans) {
		p.traced(0, i, tr, rec)
	}
	if rec.failed > 0 {
		return fmt.Errorf("%d of %d mirrored predictions differ from the real call", rec.failed, rec.attempted)
	}
	l := summariseSpans(tr.spans).Layers
	plans, pipes := float64(l["plan.DecomposeInto"].Count), float64(l["treec.Packed.Predict"].Count)
	out["plan.decompose_ns"] = l["plan.DecomposeInto"].MeanNs
	out["plan.pipelines_per_plan"] = pipes / plans
	out["feature.encode_ns"] = l["feature.EncodeDecomposed"].MeanNs
	out["feature.encode_ns_per_pipeline"] = float64(l["feature.EncodeDecomposed"].TotalNs) / pipes
	out["treec.scalar_eval_ns"] = l["treec.Packed.Predict"].MeanNs
	out["t3.predict_plan_ns"] = l["t3.Model.PredictPlanScratch"].MeanNs
	// What the real call spends outside the three layer calls: its own
	// metrics, sampling and per-pipeline bookkeeping.
	out["t3.predict_self_ns"] = l["t3.Model.PredictPlanScratch"].MeanNs -
		float64(l["plan.DecomposeInto"].TotalNs+l["feature.EncodeDecomposed"].TotalNs+l["treec.Packed.Predict"].TotalNs)/plans

	// The other two tree evaluators on the same pipeline vectors: the 8-wide
	// rows kernel join enumeration uses, and the interpreter.
	var vecs [][]float64
	for _, root := range p.plans {
		vs, _ := p.m.Registry().PlanVectors(root, plan.TrueCards)
		vecs = append(vecs, vs...)
	}
	stride := p.m.Registry().NumFeatures()
	rows := make([]float64, 0, len(vecs)*stride)
	for _, v := range vecs {
		rows = append(rows, v...)
	}
	res := make([]float64, len(vecs))
	packed, gbm := p.m.Packed(), p.m.Boosted()
	t := time.Now()
	for range passes {
		packed.PredictRowsInto(rows, stride, res, nil)
	}
	out["treec.rows_eval_ns_per_row"] = float64(time.Since(t)) / float64(passes*len(vecs))
	for i, v := range vecs {
		if res[i] != packed.Predict(v) {
			return fmt.Errorf("rows kernel and scalar walker disagree on vector %d", i)
		}
	}
	t = time.Now()
	var sink float64
	for _, v := range vecs {
		sink += gbm.Predict(v)
	}
	out["treec.interp_eval_ns"] = float64(time.Since(t)) / float64(len(vecs))
	_ = sink
	t = time.Now()
	for range passes {
		treec.Pack(gbm)
	}
	out["treec.pack_ms"] = time.Since(t).Seconds() * 1e3 / passes
	out["treec.nodes_total"] = float64(len(packed.Nodes))

	durs := make([]time.Duration, len(p.plans))
	p.m.PredictBatchInto(p.plans, plan.TrueCards, durs)
	t = time.Now()
	for range passes {
		p.m.PredictBatchInto(p.plans, plan.TrueCards, durs)
	}
	out["t3.predict_batch_ns_per_plan"] = float64(time.Since(t)) / float64(passes*len(p.plans))
	before := mallocs()
	for _, root := range p.plans {
		p.m.PredictPlanScratch(root, plan.TrueCards, &p.scratch)
	}
	out["t3.allocs_per_predict"] = float64(mallocs()-before) / float64(len(p.plans))
	out["t3.load_ms"] = p.loadMs
	return nil
}
