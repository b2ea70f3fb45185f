package gbdt

import (
	"bytes"
	"encoding/json"
	"testing"
)

// trainJSON trains on xs/ys with the given worker count and returns the
// serialized model.
func trainJSON(t *testing.T, xs [][]float64, ys []float64, workers int) []byte {
	t.Helper()
	p := DefaultParams()
	p.NumRounds = 25
	p.Seed = 42
	p.Workers = workers
	// Exercise every rng-driven and every parallelized path: bagging,
	// feature sampling, validation split, early-stopping bookkeeping.
	p.BaggingFraction = 0.8
	p.FeatureFraction = 0.75
	p.EarlyStoppingRounds = 50
	m, _, err := Train(p, xs, ys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestParallelTrainingIsDeterministic(t *testing.T) {
	dx, dy := synth(3000, 21)
	// Sparse rows, and enough of them that the bag of a tree (0.8 of the 0.8
	// left by the validation split) spans more than two row chunks: the root
	// and the first large leaves are built chunk by chunk and folded.
	sx := sparseSynth(14000, 14, 22)
	if bag := int(float64(len(sx)) * 0.8 * 0.8); bag <= 2*rowChunk {
		t.Fatalf("bag of %d rows does not span more than two chunks of %d", bag, rowChunk)
	}
	sy := make([]float64, len(sx))
	for i, x := range sx {
		sy[i] = 3 + x[4] - 0.5*x[7]*x[9] + x[13]/50
	}
	for _, data := range []struct {
		name string
		xs   [][]float64
		ys   []float64
	}{{"dense", dx, dy}, {"sparse", sx, sy}} {
		serial := trainJSON(t, data.xs, data.ys, 1)
		for _, workers := range []int{2, 3, 8} {
			if got := trainJSON(t, data.xs, data.ys, workers); !bytes.Equal(got, serial) {
				t.Errorf("%s: workers=%d model differs from workers=1 model (%d vs %d bytes)",
					data.name, workers, len(got), len(serial))
			}
		}
	}
}

func TestWorkersExcludedFromSerialization(t *testing.T) {
	p := DefaultParams()
	p.Workers = 8
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("Workers")) {
		t.Errorf("Workers leaked into serialized params: %s", data)
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
		func(p *Params) { p.Workers = -1 },
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

func TestTrainWithExplicitWorkers(t *testing.T) {
	xs, ys := synth(500, 30)
	p := DefaultParams()
	p.NumRounds = 5
	p.Workers = 4
	p.ValidationFraction = 0
	m, _, err := Train(p, xs, ys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Trees) != 5 {
		t.Fatalf("trained %d trees, want 5", len(m.Trees))
	}
}
