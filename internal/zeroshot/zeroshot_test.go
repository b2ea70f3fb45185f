package zeroshot

import (
	"math"
	"testing"

	"t3/internal/engine/plan"
	"t3/internal/qerror"
	"t3/internal/testutil"
)

func TestNodeFeaturesShape(t *testing.T) {
	c := testutil.SmallCorpus(t)
	b := c.AllTrain()[0]
	b.Root.Walk(func(n *plan.Node) {
		f := nodeFeatures(n, plan.TrueCards, nil)
		if len(f) != NumNodeFeatures {
			t.Fatalf("feature dim %d, want %d", len(f), NumNodeFeatures)
		}
		// One-hot exactly one operator bit.
		ones := 0
		for i := 0; i < plan.NumOpTypes; i++ {
			if f[i] == 1 {
				ones++
			} else if f[i] != 0 {
				t.Fatalf("one-hot slot %d has value %v", i, f[i])
			}
		}
		if ones != 1 {
			t.Fatalf("one-hot has %d ones", ones)
		}
		for i, v := range f {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("feature %d is %v", i, v)
			}
		}
	})
}

func TestZeroShotLearns(t *testing.T) {
	c := testutil.SmallCorpus(t)
	train := c.AllTrain()
	cfg := DefaultTrainConfig()
	cfg.Epochs = 25
	cfg.Seed = 3
	var losses []float64
	cfg.Progress = func(epoch int, loss float64) { losses = append(losses, loss) }
	m := Train(train, plan.TrueCards, cfg)

	if losses[len(losses)-1] >= losses[0]*0.7 {
		t.Errorf("training loss barely improved: %v -> %v", losses[0], losses[len(losses)-1])
	}

	// Zero-shot accuracy on held-out TPC-DS: sane median q-error. The NN
	// baseline is allowed to be worse than T3, but must beat wild guessing.
	var es []float64
	for _, b := range c.AllTest() {
		pred := m.PredictSeconds(b.Root, plan.TrueCards)
		es = append(es, qerror.QError(pred, b.MedianTotal().Seconds()))
	}
	s := qerror.Summarize(es)
	t.Logf("zero-shot NN TPC-DS q-error: p50=%.2f p90=%.2f avg=%.2f", s.P50, s.P90, s.Avg)
	if s.P50 > 8 {
		t.Errorf("NN median q-error %.2f — failed to learn anything", s.P50)
	}
}

func TestPredictionPositive(t *testing.T) {
	c := testutil.SmallCorpus(t)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 3
	m := Train(c.AllTrain()[:100], plan.TrueCards, cfg)
	for _, b := range c.AllTest()[:20] {
		p := m.PredictSeconds(b.Root, plan.TrueCards)
		if p <= 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("prediction %v not a positive finite duration", p)
		}
	}
}
