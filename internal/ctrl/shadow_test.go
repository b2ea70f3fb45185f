package ctrl

import (
	"testing"
	"time"

	"t3/internal/engine/exec"
	"t3/internal/engine/plan"
	"t3/internal/obs/trace"
	"t3/internal/qerror"
	"t3/internal/wire"
	"t3/internal/workload"

	t3 "t3"
)

// shadowEvalPerPlan is the reference for shadowEval: the same evidence,
// scored one PredictPlanScratch per model per plan in the order it arrives.
func shadowEvalPerPlan(c *Controller, live, cand *t3.Model, holdout *workload.LabelSet) ShadowResult {
	res := ShadowResult{Quantile: shadowQuantile}
	var liveQs, candQs []float64
	var liveScratch, candScratch t3.PredictScratch
	score := func(n *int, root *plan.Node, mode plan.CardMode, actual time.Duration) {
		if root == nil || actual <= 0 {
			return
		}
		*n++
		cp, _ := cand.PredictPlanScratch(root, mode, &candScratch)
		candQs = append(candQs, qerror.QError(cp.Seconds(), actual.Seconds()))
		if live != nil {
			lp, _ := live.PredictPlanScratch(root, mode, &liveScratch)
			liveQs = append(liveQs, qerror.QError(lp.Seconds(), actual.Seconds()))
		}
	}
	for _, l := range holdout.Labels {
		score(&res.HoldoutN, l.Root, plan.TrueCards, l.MedianTotal())
	}
	if c.cfg.Exemplars != nil {
		var dec wire.Decoder
		for _, e := range c.cfg.Exemplars.Snapshot() {
			mode, n, err := wire.ParseHeader(e.Frame)
			if err != nil {
				continue
			}
			root, err := dec.Decode(e.Frame[wire.HeaderSize : wire.HeaderSize+n])
			if err != nil {
				continue
			}
			score(&res.ExemplarN, root, mode, time.Duration(e.ActualNs))
		}
	}
	res.CandidateQ = quantileOf(candQs, res.Quantile)
	res.LiveQ = quantileOf(liveQs, res.Quantile)
	return res
}

// TestShadowEvalMatchesPerPlanLoop pins the batched shadow evaluation to the
// per-plan loop it replaced: the same ShadowResult, field for field, with
// hold-out labels only, with exemplars of both cardinality modes, and on a
// cold start without a live model.
func TestShadowEvalMatchesPerPlanLoop(t *testing.T) {
	live := seedModel(t)
	labels, err := workload.CollectLabels(ctrlInstance(t), collectConfig(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	train, holdout := labels.Split(0.25)
	cand, err := t3.Train(train.Labels, t3.TrainOptions{Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}

	store := trace.NewExemplarStore(8)
	driftedRun := scaledRunPlan(4)
	for i, root := range samplePlans(t)[:6] {
		res, err := driftedRun(&exec.Executor{}, root, true)
		if err != nil {
			t.Fatal(err)
		}
		mode := plan.CardMode(i % 2)
		pred, _ := live.PredictPlan(root, mode)
		store.Offer(root, mode, pred.Nanoseconds(), res.Total.Nanoseconds(), time.Unix(1_700_000_000, 0))
	}
	modes := map[uint8]int{}
	for _, e := range store.Snapshot() {
		modes[e.Mode]++
	}
	if modes[uint8(plan.TrueCards)] == 0 || modes[uint8(plan.EstCards)] == 0 {
		t.Fatalf("exemplars by mode %v: want both modes present", modes)
	}

	for _, tc := range []struct {
		name      string
		live      *t3.Model
		exemplars *trace.ExemplarStore
	}{
		{"holdout only", live, nil},
		{"exemplars of two modes", live, store},
		{"no live model", nil, store},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := newHarness(t, func(cfg *Config) { cfg.Exemplars = tc.exemplars })
			got := c.shadowEval(tc.live, cand, holdout)
			want := shadowEvalPerPlan(c, tc.live, cand, holdout)
			if got != want {
				t.Fatalf("batched %+v, per-plan loop %+v", got, want)
			}
			if got.HoldoutN == 0 || got.CandidateQ == 0 {
				t.Fatalf("nothing scored: %+v", got)
			}
			if tc.exemplars != nil && got.ExemplarN != tc.exemplars.Len() {
				t.Fatalf("replayed %d of %d exemplars", got.ExemplarN, tc.exemplars.Len())
			}
			if (got.LiveQ != 0) != (tc.live != nil) {
				t.Fatalf("LiveQ = %v, live model present: %v", got.LiveQ, tc.live != nil)
			}
		})
	}
}
