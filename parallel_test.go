package t3

import (
	"math/rand"
	"testing"
	"testing/quick"

	"t3/internal/testutil"
)

// TestPredictBatchMatchesPredictPlan checks, over randomly drawn plan
// subsets and worker counts, that batched prediction is exactly the
// per-plan prediction loop.
func TestPredictBatchMatchesPredictPlan(t *testing.T) {
	c := testutil.SmallCorpus(t)
	m := trainSmall(t, c)
	test := c.AllTest()

	property := func(seed int64, rawWorkers uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		roots := make([]*Plan, n)
		for i := range roots {
			roots[i] = test[rng.Intn(len(test))].Root
		}
		m.SetWorkers(int(rawWorkers % 9)) // 0..8 workers
		batch := m.PredictBatch(roots, TrueCards)
		if len(batch) != n {
			return false
		}
		for i, root := range roots {
			want, _ := m.PredictPlan(root, TrueCards)
			if batch[i] != want {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
	m.SetWorkers(0)
}

func TestPredictBatchEmptyAndSingle(t *testing.T) {
	c := testutil.SmallCorpus(t)
	m := trainSmall(t, c)
	if got := m.PredictBatch(nil, TrueCards); len(got) != 0 {
		t.Fatalf("empty batch returned %d predictions", len(got))
	}
	root := c.AllTest()[0].Root
	want, _ := m.PredictPlan(root, TrueCards)
	if got := m.PredictBatch([]*Plan{root}, TrueCards); len(got) != 1 || got[0] != want {
		t.Fatalf("single-plan batch %v, want [%v]", got, want)
	}
}
