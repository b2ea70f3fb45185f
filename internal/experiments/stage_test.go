package experiments

import (
	"testing"

	"t3/internal/engine/plan"
	"t3/internal/gbdt"
	"t3/internal/testutil"
)

func buildHierarchy(t *testing.T) (*stagePredictor, []*plan.Node) {
	t.Helper()
	c := testutil.SmallCorpus(t)
	train := c.AllTrain()
	p := gbdt.DefaultParams()
	p.NumRounds = 40
	dt, err := trainPerQuery(train, plan.TrueCards, p)
	if err != nil {
		t.Fatal(err)
	}
	nn := trainZeroShot(train[:200], plan.TrueCards, 3, 0, nil)
	var roots []*plan.Node
	for _, b := range c.AllTest() {
		roots = append(roots, b.Root)
	}
	return newStage(dt, nn), roots
}

func TestHierarchyRouting(t *testing.T) {
	s, roots := buildHierarchy(t)
	counts := map[stageSource]int{}
	for _, r := range roots {
		_, src := s.predict(r, plan.TrueCards)
		counts[src]++
		if src == fromCache {
			t.Fatal("cache hit before any observe")
		}
		// Simple plans go to the DT tier, complex ones to the NN.
		simple := len(plan.Decompose(r)) <= stageMaxDTPipelines
		if simple && src != fromDT {
			t.Errorf("simple plan routed to %v", src)
		}
		if !simple && src != fromNN {
			t.Errorf("complex plan routed to %v", src)
		}
	}
	if counts[fromDT] == 0 || counts[fromNN] == 0 {
		t.Errorf("expected both tiers used, got %v", counts)
	}
}

func TestCacheHitsAfterObserve(t *testing.T) {
	s, roots := buildHierarchy(t)
	r := roots[0]
	s.observe(r, plan.TrueCards, 0.123)
	got, src := s.predict(r, plan.TrueCards)
	if src != fromCache {
		t.Fatalf("expected cache hit, got %v", src)
	}
	if got != 0.123 {
		t.Fatalf("cached value %v, want 0.123", got)
	}
	if len(s.cache) != 1 {
		t.Fatalf("cache size %d", len(s.cache))
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
		h := planHash(r, plan.TrueCards)
		if seen[h] {
			collisions++
		}
		seen[h] = true
	}
	if collisions > len(roots)/10 {
		t.Fatalf("%d/%d plan hash collisions", collisions, len(roots))
	}
	if planHash(roots[0], plan.TrueCards) != planHash(roots[0], plan.TrueCards) {
		t.Fatal("hash not deterministic")
	}
	// Structurally different plans must differ.
	if planHash(roots[0], plan.TrueCards) == planHash(plan.NewMaterialize(roots[0]), plan.TrueCards) {
		t.Fatal("wrapping in Materialize did not change the hash")
	}
}
