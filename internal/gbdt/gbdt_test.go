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
		{"threshold between two float32s", func(n []Node) { n[2].Threshold = 0.1 }},
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

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	if err := (Params{}).Validate(); err == nil {
		t.Error("zero params should be invalid")
	}
	bad := []func(*Params){
		func(p *Params) { p.NumRounds = 0 },
		func(p *Params) { p.NumLeaves = 1 },
		func(p *Params) { p.MaxBins = 1 },
		func(p *Params) { p.MaxBins = 256 },
		func(p *Params) { p.LearningRate = 0 },
		func(p *Params) { p.LearningRate = -1 },
		func(p *Params) { p.MinDataInLeaf = 0 },
		func(p *Params) { p.Lambda = -0.1 },
		func(p *Params) { p.ValidationFraction = 1 },
		func(p *Params) { p.ValidationFraction = -0.1 },
		func(p *Params) { p.EarlyStoppingRounds = -1 },
		func(p *Params) { p.FeatureFraction = 0 },
		func(p *Params) { p.FeatureFraction = 1.5 },
		func(p *Params) { p.BaggingFraction = 0 },
		func(p *Params) { p.Objective = "huber" },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params %+v accepted", i, p)
		}
		if _, _, err := Train(p, [][]float64{{1}, {2}}, []float64{1, 2}, nil, nil); err == nil {
			t.Errorf("case %d: Train accepted invalid params", i)
		}
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
	b := newBinner(xs, 4, 64)
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

// TestBinnerThresholdConsistent: for any value and any bin edge, v <=
// threshold(bin) iff bin(v) <= bin, except in (edge, threshold] — the stored
// threshold is the edge rounded up to float32, and a value in between trained
// on the right but goes left in the stored tree. That interval is the one
// place the float64 bins and the float32 model differ; the explicit value
// below sits in it.
func TestBinnerThresholdConsistent(t *testing.T) {
	xs, _ := synth(500, 10)
	b := newBinner(xs, 4, 32)
	for f := 0; f < 4; f++ {
		for bin := 0; bin < b.numBins(f)-1; bin++ {
			edge, thr := b.edges[f][bin], b.threshold(f, uint8(bin))
			for _, x := range xs[:200] {
				v := x[f]
				if (v <= thr) != (b.bin(f, v) <= uint8(bin)) && (v <= edge || v > thr) {
					t.Fatalf("feature %d bin %d thr %v: inconsistent for v=%v (bin %d)", f, bin, thr, v, b.bin(f, v))
				}
			}
		}
	}

	// 0.1 is not a float32, and its round-up is a distinct training value.
	up := float64(roundThreshold32(0.1))
	g := newBinner([][]float64{{0.1}, {up}, {0.5}}, 1, 32)
	if g.threshold(0, 0) != up || g.bin(0, up) != 1 {
		t.Fatalf("edge 0.1: threshold %v, bin(%v) = %d; want threshold %v and bin 1 — trained right, stored left",
			g.threshold(0, 0), up, g.bin(0, up), up)
	}
}

func TestRoundThreshold32Contract(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200000; i++ {
		var x float64
		switch rng.Intn(4) {
		case 0:
			x = rng.Float64()
		case 1:
			x = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(17)-8))
		case 2:
			x = float64(rng.Intn(1 << 30))
		default:
			x = math.Float64frombits(rng.Uint64() &^ (0x7ff << 52)) // finite, small exp
		}
		up := roundThreshold32(x)
		if float64(up) < x {
			t.Fatalf("roundThreshold32(%v) = %v < input", x, up)
		}
		if float64(up) > x {
			// Must be the *smallest* such float32: one step down is below x.
			down := math.Nextafter32(up, float32(math.Inf(-1)))
			if float64(down) >= x {
				t.Fatalf("roundThreshold32(%v) = %v not minimal (%v also >= input)", x, up, down)
			}
		}
	}
}

// TestTrainedThresholdsAreFloat32: on columns whose values are mostly not
// float32s — multiples of 0.1, and integers above 2²⁴ — every threshold the
// trainer stores is one, the model validates, and Save/Load keeps every
// threshold's bits and every prediction.
func TestTrainedThresholdsAreFloat32(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	xs := make([][]float64, 3000)
	ys := make([]float64, len(xs))
	for i := range xs {
		a, c := float64(rng.Intn(5000))*0.1, float64(1<<24+rng.Intn(1<<20))
		xs[i] = []float64{a, c}
		ys[i] = math.Sin(a/40) + float64(int(c)%7)/3
	}
	p := DefaultParams()
	p.NumRounds = 30
	p.Objective = ObjectiveL2
	m, _, err := Train(p, xs, ys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	inexact := 0
	for _, x := range xs {
		for _, v := range x {
			if float64(float32(v)) != v {
				inexact++
			}
		}
	}
	if inexact < len(xs) {
		t.Fatalf("only %d of %d training values are not float32s", inexact, 2*len(xs))
	}
	for ti, tr := range m.Trees {
		for ni, n := range tr.Nodes {
			if float64(float32(n.Threshold)) != n.Threshold {
				t.Fatalf("tree %d node %d: threshold %v is not a float32", ti, ni, n.Threshold)
			}
		}
	}
	if m.NumNodes() == 0 {
		t.Fatal("model learned no splits")
	}
	if err := m.Validate(); err != nil {
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
	for ti := range m.Trees {
		for ni, n := range m.Trees[ti].Nodes {
			if math.Float64bits(m2.Trees[ti].Nodes[ni].Threshold) != math.Float64bits(n.Threshold) {
				t.Fatalf("tree %d node %d: threshold %v loads as %v", ti, ni, n.Threshold, m2.Trees[ti].Nodes[ni].Threshold)
			}
		}
	}
	for _, x := range xs[:500] {
		if a, b := m.Predict(x), m2.Predict(x); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("prediction diverged after Save/Load: %v vs %v", a, b)
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
