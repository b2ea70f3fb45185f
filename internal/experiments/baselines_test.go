package experiments

import (
	"math"
	"testing"

	"t3/internal/engine/plan"
	"t3/internal/gbdt"
	"t3/internal/qerror"
	"t3/internal/testutil"
)

func shortParams() gbdt.Params {
	p := gbdt.DefaultParams()
	p.NumRounds = 60
	return p
}

func TestPerQueryLearns(t *testing.T) {
	c := testutil.SmallCorpus(t)
	m, err := trainPerQuery(c.AllTrain(), plan.TrueCards, shortParams())
	if err != nil {
		t.Fatal(err)
	}
	var es []float64
	for _, b := range c.AllTest() {
		es = append(es, qerror.QError(m.predictSeconds(b.Root, plan.TrueCards), b.MedianTotal().Seconds()))
	}
	s := qerror.Summarize(es)
	t.Logf("per-query baseline TPC-DS q-error: p50=%.2f p90=%.2f avg=%.2f", s.P50, s.P90, s.Avg)
	if s.P50 > 6 {
		t.Errorf("per-query baseline p50 %.2f — learned nothing", s.P50)
	}
}

func TestPerPipelineDirectLearns(t *testing.T) {
	c := testutil.SmallCorpus(t)
	m, err := trainPerPipelineDirect(c.AllTrain(), plan.TrueCards, shortParams())
	if err != nil {
		t.Fatal(err)
	}
	var es []float64
	for _, b := range c.AllTest() {
		es = append(es, qerror.QError(m.predictSeconds(b.Root, plan.TrueCards), b.MedianTotal().Seconds()))
	}
	s := qerror.Summarize(es)
	t.Logf("per-pipeline-direct TPC-DS q-error: p50=%.2f p90=%.2f avg=%.2f", s.P50, s.P90, s.Avg)
	if s.P50 > 6 {
		t.Errorf("per-pipeline-direct p50 %.2f — learned nothing", s.P50)
	}
}

func TestPredictionsFiniteAndPositive(t *testing.T) {
	c := testutil.SmallCorpus(t)
	q, err := trainPerQuery(c.AllTrain()[:150], plan.TrueCards, shortParams())
	if err != nil {
		t.Fatal(err)
	}
	d, err := trainPerPipelineDirect(c.AllTrain()[:150], plan.TrueCards, shortParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range c.AllTest()[:30] {
		for _, v := range []float64{
			q.predictSeconds(b.Root, plan.TrueCards),
			d.predictSeconds(b.Root, plan.TrueCards),
		} {
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: prediction %v", b.Name, v)
			}
		}
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := trainPerQuery(nil, plan.TrueCards, shortParams()); err == nil {
		t.Error("empty per-query training should fail")
	}
	if _, err := trainPerPipelineDirect(nil, plan.TrueCards, shortParams()); err == nil {
		t.Error("empty per-pipeline training should fail")
	}
}
