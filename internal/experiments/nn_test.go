package experiments

import (
	"math"
	"math/rand"
	"testing"
)

func TestLinearForwardBackwardGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := newLinear(rng, 4, 3)
	x := []float64{0.5, -1, 2, 0.1}
	dy := []float64{1, -0.5, 0.25}

	dx := l.backward(x, dy)

	// Numeric gradient check on the input.
	const h = 1e-6
	for i := range x {
		xp := append([]float64(nil), x...)
		xm := append([]float64(nil), x...)
		xp[i] += h
		xm[i] -= h
		op := l.forward(xp)
		om := l.forward(xm)
		num := 0.0
		for o := range dy {
			num += dy[o] * (op[o] - om[o]) / (2 * h)
		}
		if math.Abs(num-dx[i]) > 1e-6 {
			t.Errorf("dx[%d] = %v, numeric %v", i, dx[i], num)
		}
	}
}

func TestMLPGradcheckThroughReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := newMLP(rng, 3, 5, 1)
	x := []float64{0.3, -0.7, 1.2}

	tr, _ := m.forward(x)
	dx := m.backward(tr, []float64{1})

	const h = 1e-6
	for i := range x {
		xp := append([]float64(nil), x...)
		xm := append([]float64(nil), x...)
		xp[i] += h
		xm[i] -= h
		op := m.infer(xp)[0]
		om := m.infer(xm)[0]
		num := (op - om) / (2 * h)
		if math.Abs(num-dx[i]) > 1e-5 {
			t.Errorf("dx[%d] = %v, numeric %v", i, dx[i], num)
		}
	}
}

func TestMLPFitsXORish(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := newMLP(rng, 2, 16, 1)
	data := [][2]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	target := []float64{0, 1, 1, 0}
	step := 0
	for epoch := 0; epoch < 3000; epoch++ {
		for i, d := range data {
			tr, out := m.forward(d[:])
			diff := out[0] - target[i]
			m.backward(tr, []float64{diff})
		}
		step++
		m.adam(0.01, step)
	}
	for i, d := range data {
		got := m.infer(d[:])[0]
		if math.Abs(got-target[i]) > 0.1 {
			t.Errorf("xor(%v) = %v, want %v", d, got, target[i])
		}
	}
}

func TestInferMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := newMLP(rng, 6, 8, 8, 2)
	for i := 0; i < 50; i++ {
		x := make([]float64, 6)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		_, a := m.forward(x)
		b := m.infer(x)
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("forward %v != infer %v", a, b)
			}
		}
	}
}
