package stage

import (
	"testing"

	"t3/internal/baselines"
	"t3/internal/engine/plan"
	"t3/internal/gbdt"
	"t3/internal/testutil"
	"t3/internal/zeroshot"
)

func buildHierarchy(t *testing.T) (*Predictor, []*plan.Node) {
	t.Helper()
	c := testutil.SmallCorpus(t)
	train := c.AllTrain()
	p := gbdt.DefaultParams()
	p.NumRounds = 40
	dt, err := baselines.TrainPerQuery(train, plan.TrueCards, p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := zeroshot.DefaultTrainConfig()
	cfg.Epochs = 3
	nn := zeroshot.Train(train[:200], plan.TrueCards, cfg)
	var roots []*plan.Node
	for _, b := range c.AllTest() {
		roots = append(roots, b.Root)
	}
	return New(dt, nn, 4), roots
}

func TestHierarchyRouting(t *testing.T) {
	s, roots := buildHierarchy(t)
	counts := map[Source]int{}
	for _, r := range roots {
		_, src := s.Predict(r, plan.TrueCards)
		counts[src]++
		if src == FromCache {
			t.Fatal("cache hit before any Observe")
		}
		// Simple plans go to the DT tier, complex ones to the NN.
		simple := len(plan.Decompose(r)) <= s.MaxDTPipelines
		if simple && src != FromDT {
			t.Errorf("simple plan routed to %v", src)
		}
		if !simple && src != FromNN {
			t.Errorf("complex plan routed to %v", src)
		}
	}
	if counts[FromDT] == 0 || counts[FromNN] == 0 {
		t.Errorf("expected both tiers used, got %v", counts)
	}
}

func TestCacheHitsAfterObserve(t *testing.T) {
	s, roots := buildHierarchy(t)
	r := roots[0]
	s.Observe(r, plan.TrueCards, 0.123)
	got, src := s.Predict(r, plan.TrueCards)
	if src != FromCache {
		t.Fatalf("expected cache hit, got %v", src)
	}
	if got != 0.123 {
		t.Fatalf("cached value %v, want 0.123", got)
	}
	if s.CacheSize() != 1 {
		t.Fatalf("cache size %d", s.CacheSize())
	}
}

func TestPlanHashDistinguishesPlans(t *testing.T) {
	_, roots := buildHierarchy(t)
	// Identically-structured generated queries may legitimately collide (a
	// correct cache hit); require only that the overwhelming majority of
	// distinct plans hash distinctly and that the hash is stable.
	seen := map[uint64]bool{}
	collisions := 0
	for _, r := range roots {
		h := PlanHash(r, plan.TrueCards)
		if seen[h] {
			collisions++
		}
		seen[h] = true
	}
	if collisions > len(roots)/10 {
		t.Fatalf("%d/%d plan hash collisions", collisions, len(roots))
	}
	if PlanHash(roots[0], plan.TrueCards) != PlanHash(roots[0], plan.TrueCards) {
		t.Fatal("hash not deterministic")
	}
	// Structurally different plans must differ.
	if PlanHash(roots[0], plan.TrueCards) == PlanHash(plan.NewMaterialize(roots[0]), plan.TrueCards) {
		t.Fatal("wrapping in Materialize did not change the hash")
	}
}
