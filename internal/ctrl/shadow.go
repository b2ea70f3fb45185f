package ctrl

import (
	"sort"
	"time"

	"t3/internal/engine/plan"
	"t3/internal/qerror"
	"t3/internal/wire"
	"t3/internal/workload"

	t3 "t3"
)

// Shadow evaluation: before a candidate model may replace the live one,
// both predict the same evidence — the held-out labels of the fresh
// collection plus the replayed worst-misprediction exemplars — and the
// candidate must win the watched q-error quantile by the configured ratio.
// The holdout catches candidates that merely memorized the training split;
// the exemplars catch candidates that fixed the average but not the plans
// production actually mispredicts.

// ShadowResult is one shadow comparison of candidate vs live.
type ShadowResult struct {
	// Quantile is the judged q-error quantile.
	Quantile float64 `json:"quantile"`
	// LiveQ and CandidateQ are the models' q-errors at that quantile over
	// the same evidence.
	LiveQ      float64 `json:"live_q"`
	CandidateQ float64 `json:"candidate_q"`
	// HoldoutN and ExemplarN count the evidence: holdout labels scored and
	// exemplar frames replayed.
	HoldoutN  int `json:"holdout_n"`
	ExemplarN int `json:"exemplar_n"`
}

// Win reports whether the candidate's quantile beats the live model's by
// the promote ratio. With no evidence at all the candidate loses: an empty
// shadow set proves nothing, and the safe default is the incumbent.
func (r ShadowResult) Win(promoteRatio float64) bool {
	if r.HoldoutN+r.ExemplarN == 0 {
		return false
	}
	return r.CandidateQ <= promoteRatio*r.LiveQ
}

// shadowEval scores live and cand over the holdout labels and the exemplar
// store's replayed frames. live may be nil (cold start): the result then
// carries only the candidate's numbers and LiveQ stays 0.
//
// The evidence is collected per cardinality mode and each model prices a
// mode's plans in one PredictBatchScratch call, whose nanoseconds are
// PredictPlan's.
func (c *Controller) shadowEval(live, cand *t3.Model, holdout *workload.LabelSet) ShadowResult {
	res := ShadowResult{Quantile: c.cfg.ShadowQuantile}
	var roots [2][]*plan.Node // by plan.CardMode
	var actuals [2][]float64  // seconds, beside roots
	add := func(root *plan.Node, mode plan.CardMode, actual time.Duration) {
		if root == nil || actual <= 0 {
			return
		}
		roots[mode] = append(roots[mode], root)
		actuals[mode] = append(actuals[mode], actual.Seconds())
	}

	for _, l := range holdout.Labels {
		add(l.Root, plan.TrueCards, l.MedianTotal())
		res.HoldoutN++
	}

	if c.cfg.Exemplars != nil {
		var dec wire.Decoder // keeps every replayed plan until the models have priced them
		for _, e := range c.cfg.Exemplars.Snapshot() {
			if len(e.Frame) <= wire.HeaderSize {
				continue
			}
			mode, n, err := wire.ParseHeader(e.Frame) // mode is TrueCards or EstCards, or err
			if err != nil || wire.HeaderSize+n > len(e.Frame) {
				continue
			}
			root, err := dec.DecodeNext(e.Frame[wire.HeaderSize : wire.HeaderSize+n])
			if err != nil {
				continue
			}
			add(root, mode, time.Duration(e.ActualNs))
			res.ExemplarN++
		}
	}

	qerrors := func(m *t3.Model) []float64 {
		var qs []float64
		var scratch t3.PredictScratch
		for mode := range roots {
			preds := make([]time.Duration, len(roots[mode]))
			m.PredictBatchScratch(roots[mode], plan.CardMode(mode), preds, &scratch)
			for i, p := range preds {
				qs = append(qs, qerror.QError(p.Seconds(), actuals[mode][i]))
			}
		}
		return qs
	}
	res.CandidateQ = quantileOf(qerrors(cand), res.Quantile)
	if live != nil {
		res.LiveQ = quantileOf(qerrors(live), res.Quantile)
	}
	return res
}

func quantileOf(qs []float64, p float64) float64 {
	if len(qs) == 0 {
		return 0
	}
	sort.Float64s(qs)
	return qerror.Percentile(qs, p)
}
