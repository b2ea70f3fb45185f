package compiled

import (
	"math"
	"math/rand"
	"testing"

	"t3/internal/gbdt"
	"t3/internal/treec"
)

// loadDefault reads the JSON model the generated code was compiled from.
func loadDefault(t *testing.T) *gbdt.Model {
	t.Helper()
	m, err := gbdt.Load("../../models/t3_default.json")
	if err != nil {
		t.Skipf("default model unavailable: %v", err)
	}
	return m
}

func TestGeneratedMatchesInterpreted(t *testing.T) {
	m := loadDefault(t)
	if m.NumFeatures != NumFeatures() {
		t.Fatalf("generated code has %d features, model has %d — regenerate with cmd/t3compile",
			NumFeatures(), m.NumFeatures)
	}
	gaps := treec.Flatten(m)
	packed := treec.Pack(m)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		v := make([]float64, m.NumFeatures)
		for j := range v {
			switch rng.Intn(3) {
			case 0: // zero, like most sparse pipeline features
			case 1:
				v[j] = rng.Float64() // percentages
			default:
				v[j] = math.Pow(10, rng.Float64()*7) // cardinalities
			}
		}
		want := m.Predict(v)
		gotPacked := packed.Predict(v)
		got := Predict(v)
		// Generated code shares the packed tier's float32-rounded
		// thresholds: the two must agree bit-for-bit on every input.
		if got != gotPacked {
			t.Fatalf("generated(%d) = %v, packed = %v — tiers must be bit-equivalent", i, got, gotPacked)
		}
		// Against the float64 interpreter, divergence beyond summation
		// noise is only legitimate when a feature value sits in a documented
		// float32 rounding gap.
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) && !gaps.InRoundingGap(v) {
			t.Fatalf("generated(%d) = %v, interpreted = %v with no feature value in a rounding gap", i, got, want)
		}
	}
}

func TestGeneratedBatch(t *testing.T) {
	m := loadDefault(t)
	rng := rand.New(rand.NewSource(2))
	vs := make([][]float64, 100)
	for i := range vs {
		v := make([]float64, m.NumFeatures)
		for j := range v {
			v[j] = rng.Float64() * 1000
		}
		vs[i] = v
	}
	out := PredictBatch(vs)
	for i, v := range vs {
		if out[i] != Predict(v) {
			t.Fatalf("batch row %d differs from single prediction", i)
		}
	}
}

func TestMetadata(t *testing.T) {
	if NumTrees() <= 0 || NumFeatures() <= 0 {
		t.Fatalf("implausible metadata: %d trees, %d features", NumTrees(), NumFeatures())
	}
}
