package treec

import (
	"math/rand"
	"testing"

	"t3/internal/gbdt"
)

// trainToy trains a small model on a nonlinear synthetic problem.
func trainToy(t *testing.T, rounds, leaves int, seed int64) *gbdt.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 2000
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64() * 4, rng.Float64() * 100, float64(rng.Intn(7))}
		y := x[0] * 3
		if x[1] > 50 {
			y += 5
		}
		if x[2] == 2 {
			y -= 1
		}
		xs[i], ys[i] = x, y
	}
	p := gbdt.DefaultParams()
	p.NumRounds = rounds
	p.NumLeaves = leaves
	p.Objective = gbdt.ObjectiveL2
	p.Seed = seed
	m, _, err := gbdt.Train(p, xs, ys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
