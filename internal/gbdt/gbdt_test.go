package gbdt

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

// synth generates a nonlinear regression problem with interactions, similar
// in spirit to per-tuple cost surfaces (plateaus and jumps).
func synth(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64() * 10, rng.Float64(), float64(rng.Intn(5)), rng.Float64() * 1000}
		y := 2.0
		if x[0] > 5 {
			y += 3
		}
		y += x[1] * 2
		if x[2] >= 3 && x[0] < 2 {
			y -= 4
		}
		y += math.Log1p(x[3]) * 0.5
		xs[i] = x
		ys[i] = y
	}
	return xs, ys
}

func TestTrainReducesLoss(t *testing.T) {
	xs, ys := synth(4000, 1)
	p := DefaultParams()
	p.NumRounds = 60
	p.Objective = ObjectiveL2
	p.Seed = 7
	m, res, err := Train(p, xs, ys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TrainLoss) != 60 {
		t.Fatalf("rounds = %d", len(res.TrainLoss))
	}
	if res.TrainLoss[59] >= res.TrainLoss[0]*0.2 {
		t.Errorf("training barely improved: %v -> %v", res.TrainLoss[0], res.TrainLoss[59])
	}
	// Held-out accuracy.
	tx, ty := synth(1000, 2)
	mse := 0.0
	for i, x := range tx {
		d := m.Predict(x) - ty[i]
		mse += d * d
	}
	mse /= float64(len(tx))
	if mse > 0.1 {
		t.Errorf("test MSE = %v, want < 0.1", mse)
	}
}

func TestMAPEObjective(t *testing.T) {
	xs, ys := synth(3000, 3)
	p := DefaultParams()
	p.NumRounds = 80
	p.Objective = ObjectiveMAPE
	m, _, err := Train(p, xs, ys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tx, ty := synth(500, 4)
	mape := 0.0
	for i, x := range tx {
		mape += math.Abs(m.Predict(x)-ty[i]) / math.Max(math.Abs(ty[i]), 1)
	}
	mape /= float64(len(tx))
	if mape > 0.08 {
		t.Errorf("test MAPE = %v, want < 0.08", mape)
	}
}

func TestConstantTargetGivesBaseScore(t *testing.T) {
	xs := make([][]float64, 100)
	ys := make([]float64, 100)
	for i := range xs {
		xs[i] = []float64{float64(i), float64(i % 3)}
		ys[i] = 42
	}
	p := DefaultParams()
	p.NumRounds = 5
	p.ValidationFraction = 0
	m, _, err := Train(p, xs, ys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{3, 1}); math.Abs(got-42) > 1e-9 {
		t.Errorf("constant prediction = %v, want 42", got)
	}
}

func TestEarlyStopping(t *testing.T) {
	xs, ys := synth(2000, 5)
	p := DefaultParams()
	p.NumRounds = 200
	p.EarlyStoppingRounds = 5
	p.Objective = ObjectiveL2
	m, res, err := Train(p, xs, ys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Trees) == 200 && m.BestIteration == 200 {
		t.Skip("no early stop triggered; acceptable but unusual")
	}
	if m.BestIteration > len(res.ValLoss) {
		t.Errorf("best iteration %d beyond %d rounds", m.BestIteration, len(res.ValLoss))
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	xs, ys := synth(1000, 6)
	p := DefaultParams()
	p.NumRounds = 20
	m, _, err := Train(p, xs, ys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		x := xs[i]
		if a, b := m.Predict(x), m2.Predict(x); a != b {
			t.Fatalf("prediction diverged after roundtrip: %v vs %v", a, b)
		}
	}
}

func TestLoadRejectsCorruptModel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"num_features":2,"trees":[{"nodes":[{"f":9,"t":1,"l":-1,"r":-2}],"leaves":[1,2]}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("expected validation error for out-of-range feature")
	}
}

func TestValidateDetectsBadLeafCount(t *testing.T) {
	m := &Model{NumFeatures: 1, Trees: []Tree{{Nodes: []Node{{Feature: 0, Left: -1, Right: -2}}, Leaves: []float64{1}}}}
	if err := m.Validate(); err == nil {
		t.Fatal("expected error for mismatched leaf count")
	}
}

// TestValidateRejectsBadStructure corrupts one field of a valid tree per case.
// Each would otherwise surface downstream — as an index panic, a walk that
// never ends, or a compiled ensemble larger than the file that described it —
// so Validate, which every loaded model passes through, must refuse them all.
func TestValidateRejectsBadStructure(t *testing.T) {
	// Node 0 has two interior children; nodes 1 and 2 hold the four leaves.
	good := func() *Model {
		return &Model{NumFeatures: 2, Trees: []Tree{{
			Nodes: []Node{
				{Feature: 0, Threshold: 1, Left: 1, Right: 2},
				{Feature: 1, Threshold: 2, Left: ^0, Right: ^1},
				{Feature: 1, Threshold: 3, Left: ^2, Right: ^3},
			},
			Leaves: []float64{1, 2, 3, 4},
		}}}
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("uncorrupted tree rejected: %v", err)
	}
	cases := []struct {
		name    string
		corrupt func(n []Node)
	}{
		{"feature == NumFeatures", func(n []Node) { n[1].Feature = 2 }},
		{"negative feature", func(n []Node) { n[1].Feature = -1 }},
		{"child is its own parent", func(n []Node) { n[1].Left = 1 }},
		{"child before its parent", func(n []Node) { n[2].Left = 1 }},
		{"child beyond all nodes", func(n []Node) { n[2].Right = 3 }},
		{"child with two parents", func(n []Node) { n[0].Left = 2 }},
		{"child with no parent", func(n []Node) { n[0].Right = ^0 }},
		{"leaf == len(Leaves)", func(n []Node) { n[2].Right = ^4 }},
		{"leaf far out of range", func(n []Node) { n[1].Left = math.MinInt32 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := good()
			tc.corrupt(m.Trees[0].Nodes)
			if err := m.Validate(); err == nil {
				t.Fatal("validated without error")
			}
		})
	}
}

func TestTrainErrors(t *testing.T) {
	if _, _, err := Train(DefaultParams(), nil, nil, nil, nil); err == nil {
		t.Error("empty training set should fail")
	}
	p := DefaultParams()
	p.NumLeaves = 1
	if _, _, err := Train(p, [][]float64{{1}}, []float64{1}, nil, nil); err == nil {
		t.Error("NumLeaves=1 should fail")
	}
	p = DefaultParams()
	p.MaxBins = 1000
	if _, _, err := Train(p, [][]float64{{1}}, []float64{1}, nil, nil); err == nil {
		t.Error("MaxBins=1000 should fail")
	}
	if _, _, err := Train(DefaultParams(), [][]float64{{1}, {2}}, []float64{1}, nil, nil); err == nil {
		t.Error("row/target mismatch should fail")
	}
}

func TestDeterministicTraining(t *testing.T) {
	xs, ys := synth(1500, 8)
	p := DefaultParams()
	p.NumRounds = 15
	p.Seed = 99
	m1, _, err := Train(p, xs, ys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := Train(p, xs, ys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if a, b := m1.Predict(xs[i]), m2.Predict(xs[i]); a != b {
			t.Fatalf("same seed, different models at row %d: %v vs %v", i, a, b)
		}
	}
}

func TestBinnerMonotonic(t *testing.T) {
	xs, _ := synth(2000, 9)
	b := newBinner(nil, xs, 4, 64)
	// Property: binning preserves order.
	f := func(a, c float64) bool {
		a = math.Mod(math.Abs(a), 10)
		c = math.Mod(math.Abs(c), 10)
		if a > c {
			a, c = c, a
		}
		return b.bin(0, a) <= b.bin(0, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinnerThresholdConsistent(t *testing.T) {
	xs, _ := synth(500, 10)
	b := newBinner(nil, xs, 4, 32)
	// Property: for any value and any bin edge, v <= threshold(bin) iff
	// bin(v) <= bin. This is what makes real-valued tree thresholds
	// equivalent to binned splits.
	for f := 0; f < 4; f++ {
		for bin := 0; bin < b.numBins(f)-1; bin++ {
			thr := b.threshold(f, uint8(bin))
			for _, x := range xs[:200] {
				v := x[f]
				if (v <= thr) != (b.bin(f, v) <= uint8(bin)) {
					t.Fatalf("feature %d bin %d thr %v: inconsistent for v=%v (bin %d)", f, bin, thr, v, b.bin(f, v))
				}
			}
		}
	}
}

func TestFeatureImportanceAndNumNodes(t *testing.T) {
	xs, ys := synth(2000, 11)
	p := DefaultParams()
	p.NumRounds = 10
	m, _, err := Train(p, xs, ys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	imp := m.FeatureImportance()
	total := 0
	for _, c := range imp {
		total += c
	}
	if total != m.NumNodes() {
		t.Errorf("importance sum %d != node count %d", total, m.NumNodes())
	}
	if m.NumNodes() == 0 {
		t.Error("model learned no splits")
	}
}

func TestBaggingAndFeatureFraction(t *testing.T) {
	xs, ys := synth(3000, 12)
	p := DefaultParams()
	p.NumRounds = 40
	p.BaggingFraction = 0.7
	p.FeatureFraction = 0.75
	p.Objective = ObjectiveL2
	m, _, err := Train(p, xs, ys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tx, ty := synth(500, 13)
	mse := 0.0
	for i, x := range tx {
		d := m.Predict(x) - ty[i]
		mse += d * d
	}
	mse /= float64(len(tx))
	if mse > 0.5 {
		t.Errorf("bagged model test MSE = %v", mse)
	}
}
