package t3

import (
	"math"
	"testing"

	"t3/internal/engine/plan"
	"t3/internal/genplan"
	"t3/internal/planio"
)

// genPlans draws a spread of generated plans across every scenario.
func genPlans(seeds int) []*genplan.Case {
	var cases []*genplan.Case
	for seed := int64(0); seed < int64(seeds); seed++ {
		for sc := genplan.Scenario(0); sc < genplan.NumScenarios; sc++ {
			cases = append(cases, genplan.Generate(seed, sc))
		}
	}
	return cases
}

// TestGeneratedPlanPredictionSumsOverPipelines checks the Figure-2 identity
// on generated plans through an independent path: the whole-plan prediction
// must equal the sum of per-pipeline predictions obtained one pipeline at a
// time.
func TestGeneratedPlanPredictionSumsOverPipelines(t *testing.T) {
	c := smallCorpus(t)
	m := trainSmall(t, c)
	for _, g := range genPlans(15) {
		if !g.FiniteCards {
			continue // NaN feature values make sums incomparable
		}
		total, per := m.PredictPlan(g.Root, TrueCards)
		pipes := plan.Decompose(g.Root)
		if len(per) != len(pipes) {
			t.Fatalf("seed=%d scenario=%s: %d predictions for %d pipelines",
				g.Seed, g.Scenario, len(per), len(pipes))
		}
		var sum int64
		for i, p := range pipes {
			alone := packedPipeline(m, p, TrueCards)
			if alone != per[i].Total {
				t.Fatalf("seed=%d scenario=%s pipeline %d: standalone %v != in-plan %v",
					g.Seed, g.Scenario, i, alone, per[i].Total)
			}
			sum += int64(alone)
		}
		if int64(total) != sum {
			t.Fatalf("seed=%d scenario=%s: total %d != pipeline sum %d", g.Seed, g.Scenario, total, sum)
		}
	}
}

// TestGeneratedPlanScratchReuse reuses one scratch across heterogeneous
// generated plans and checks every prediction matches a fresh-scratch call.
func TestGeneratedPlanScratchReuse(t *testing.T) {
	c := smallCorpus(t)
	m := trainSmall(t, c)
	var s PredictScratch
	for _, g := range genPlans(10) {
		got, gotPer := m.PredictPlanScratch(g.Root, TrueCards, &s)
		want, wantPer := m.PredictPlan(g.Root, TrueCards)
		if got != want || len(gotPer) != len(wantPer) {
			t.Fatalf("seed=%d scenario=%s: reused scratch %v (%d pipelines) != fresh %v (%d)",
				g.Seed, g.Scenario, got, len(gotPer), want, len(wantPer))
		}
		for i := range gotPer {
			// Hostile annotations can put NaN in Cardinality, so compare
			// floats by bits.
			if gotPer[i].Index != wantPer[i].Index ||
				gotPer[i].Total != wantPer[i].Total ||
				math.Float64bits(gotPer[i].PerTupleSeconds) != math.Float64bits(wantPer[i].PerTupleSeconds) ||
				math.Float64bits(gotPer[i].Cardinality) != math.Float64bits(wantPer[i].Cardinality) {
				t.Fatalf("seed=%d scenario=%s pipeline %d: %+v != %+v",
					g.Seed, g.Scenario, i, gotPer[i], wantPer[i])
			}
		}
	}
}

// TestGeneratedPlanPredictionSurvivesPlanIO round-trips generated plans
// through the JSON plan format and checks predictions are unchanged — the
// serialized annotations carry everything the predictor reads.
func TestGeneratedPlanPredictionSurvivesPlanIO(t *testing.T) {
	c := smallCorpus(t)
	m := trainSmall(t, c)
	tripped := 0
	for _, g := range genPlans(15) {
		if !g.FiniteCards {
			continue // JSON cannot carry NaN/Inf annotations
		}
		data, err := planio.Marshal(g.Root)
		if err != nil {
			t.Fatalf("seed=%d scenario=%s: marshal: %v", g.Seed, g.Scenario, err)
		}
		back, err := planio.Unmarshal(data)
		if err != nil {
			t.Fatalf("seed=%d scenario=%s: unmarshal: %v", g.Seed, g.Scenario, err)
		}
		want, wantPer := m.PredictPlan(g.Root, TrueCards)
		got, gotPer := m.PredictPlan(back, TrueCards)
		if got != want || len(gotPer) != len(wantPer) {
			t.Fatalf("seed=%d scenario=%s: decoded-plan prediction %v != original %v",
				g.Seed, g.Scenario, got, want)
		}
		tripped++
	}
	if tripped < 40 {
		t.Fatalf("only %d generated plans round-tripped", tripped)
	}
}

// TestGeneratedPlanBatchWorkerInvariance predicts the same generated plans
// at several worker counts and checks the batch output never depends on the
// parallelism.
func TestGeneratedPlanBatchWorkerInvariance(t *testing.T) {
	c := smallCorpus(t)
	m := trainSmall(t, c)
	var roots []*Plan
	for _, g := range genPlans(8) {
		roots = append(roots, g.Root)
	}
	defer m.SetWorkers(0)
	m.SetWorkers(1)
	want := m.PredictBatch(roots, TrueCards)
	for _, workers := range []int{2, 4, 7} {
		m.SetWorkers(workers)
		got := m.PredictBatch(roots, TrueCards)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d plan %d: %v != %v at workers=1", workers, i, got[i], want[i])
			}
		}
	}
}
