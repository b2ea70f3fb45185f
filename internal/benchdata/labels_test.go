package benchdata

import (
	"testing"

	"t3/internal/engine/plan"
	"t3/internal/feature"
	"t3/internal/workload"
)

func TestFromLabels(t *testing.T) {
	in := workload.MustGenerate(workload.TPCHSpec("tpch_fromlabels", 0.002, 17))
	ls, err := workload.CollectLabels(in, workload.CollectConfig{Workers: 2, Runs: 2, PerGroup: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	benched := FromLabels(ls)
	if len(benched) != len(ls.Labels) {
		t.Fatalf("FromLabels returned %d labels, want %d", len(benched), len(ls.Labels))
	}
	for i, b := range benched {
		if b != ls.Labels[i] {
			t.Fatalf("label %d is not the collected one", i)
		}
	}
	// The labels must featurize: Examples is what the trainer calls.
	reg := feature.NewDefaultRegistry()
	xs, ys := Examples(reg, benched, plan.TrueCards, 0)
	if len(xs) == 0 || len(xs) != len(ys) {
		t.Fatalf("Examples over collected labels = %d/%d", len(xs), len(ys))
	}
}
