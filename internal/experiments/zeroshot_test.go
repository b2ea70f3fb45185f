package experiments

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
		f := nodeFeatures(n, plan.TrueCards)
		if len(f) != numNodeFeatures {
			t.Fatalf("feature dim %d, want %d", len(f), numNodeFeatures)
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
	var losses []float64
	m := trainZeroShot(train, plan.TrueCards, 25, 3, func(epoch int, loss float64) { losses = append(losses, loss) })

	if losses[len(losses)-1] >= losses[0]*0.7 {
		t.Errorf("training loss barely improved: %v -> %v", losses[0], losses[len(losses)-1])
	}

	// Zero-shot accuracy on held-out TPC-DS: sane median q-error. The NN
	// baseline is allowed to be worse than T3, but must beat wild guessing.
	var es []float64
	for _, b := range c.AllTest() {
		pred := m.predictSeconds(b.Root, plan.TrueCards)
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
	m := trainZeroShot(c.AllTrain()[:100], plan.TrueCards, 3, 0, nil)
	for _, b := range c.AllTest()[:20] {
		p := m.predictSeconds(b.Root, plan.TrueCards)
		if p <= 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("prediction %v not a positive finite duration", p)
		}
	}
}

// BenchmarkTable1_ZeroShotNN times one zero-shot prediction (Table 1's NN
// row) on cmd/t3bench's default corpus and model.
func BenchmarkTable1_ZeroShotNN(b *testing.B) {
	e := NewEnv(QuickConfig())
	c, err := e.Corpus()
	if err != nil {
		b.Fatal(err)
	}
	nn, err := e.zeroShot()
	if err != nil {
		b.Fatal(err)
	}
	test := c.AllTest()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.predictSeconds(test[i%len(test)].Root, plan.TrueCards)
	}
}
