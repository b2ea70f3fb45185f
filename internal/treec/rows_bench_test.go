package treec

import (
	"math/rand"
	"testing"

	"t3/internal/gbdt"
)

// trainWide trains a planner-scale model: many rounds over a wide feature
// space, the shape the join enumerator batches against.
func trainWide(b *testing.B, rounds, features int) *gbdt.Model {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	n := 2000
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		v := make([]float64, features)
		for f := 0; f < 16; f++ {
			v[(f*13)%features] = rng.Float64() * 100
		}
		xs[i] = v
		ys[i] = v[0]*3 + v[13] - v[26]*0.5 + rng.Float64()
	}
	p := gbdt.DefaultParams()
	p.NumRounds = rounds
	p.Objective = gbdt.ObjectiveL2
	p.ValidationFraction = 0
	m, _, err := gbdt.Train(p, xs, ys, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// benchRows builds a row-major arena of planner-scale feature vectors.
func benchRows(nrows, stride int) []float64 {
	rng := rand.New(rand.NewSource(11))
	rows := make([]float64, nrows*stride)
	for i := range rows {
		rows[i] = rng.Float64() * 100
	}
	return rows
}

// BenchmarkPredictRowsPackedScalar is the scalar planner costing path: one
// Packed.Predict call per row.
func BenchmarkPredictRowsPackedScalar(b *testing.B) {
	p := Pack(trainWide(b, 80, 117))
	const nrows, stride = 1024, 117
	rows := benchRows(nrows, stride)
	out := make([]float64, nrows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < nrows; r++ {
			out[r] = p.Predict(rows[r*stride : (r+1)*stride])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nrows), "ns/row")
}

// BenchmarkPredictRowsInto is the production batch kernel: the block-wise
// bitvector kernel of quickscorer.go, on independent uniform rows — full
// blocks of eight whose rows have next to nothing to share.
func BenchmarkPredictRowsInto(b *testing.B) {
	p := Pack(trainWide(b, 80, 117))
	const nrows, stride = 1024, 117
	rows := benchRows(nrows, stride)
	out := make([]float64, nrows)
	p.PredictRowsInto(rows, stride, out, nil)
	for i := 0; i < nrows; i++ {
		if want := p.Predict(rows[i*stride : (i+1)*stride]); out[i] != want {
			b.Fatalf("row %d: %v != %v", i, out[i], want)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.PredictRowsInto(rows, stride, out, nil)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nrows), "ns/row")
}
