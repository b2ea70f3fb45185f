package registry

import (
	"crypto/sha256"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"t3/internal/gbdt"
	"t3/internal/treec"
)

// foldPredict is the interpreter summed in the compiled order: base score and
// constant trees first, then the multi-node trees, each in tree order.
func foldPredict(m *gbdt.Model, v []float64) float64 {
	s := m.BaseScore
	for i := range m.Trees {
		if len(m.Trees[i].Nodes) == 0 {
			s += m.Trees[i].Leaves[0]
		}
	}
	for i := range m.Trees {
		if len(m.Trees[i].Nodes) > 0 {
			s += m.Trees[i].Predict(v)
		}
	}
	return s
}

// FuzzRegistryDecode fuzzes the bytes the server does read: any input is
// either refused by Decode, or holds an ensemble that compiles to exactly its
// own nodes and that Predict, PredictRowsInto and the interpreter evaluate
// without panicking, to the same bits.
//
// Random mutation almost never survives the SHA-256 trailer, so an input comes
// in one of two shapes: a whole file (sealed false), or a file body that the
// harness seals with a fresh checksum — which is what lets mutated length
// prefixes, metadata and ensembles reach the code behind the checksum.
func FuzzRegistryDecode(f *testing.F) {
	for _, name := range []string{"artifact_v2.t3m", "artifact_v1.t3m"} {
		file, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(file[:len(file)-sha256.Size], true)
	}
	f.Fuzz(func(t *testing.T, data []byte, seal bool) {
		if seal {
			sum := sha256.Sum256(data)
			data = append(data[:len(data):len(data)], sum[:]...)
		}
		a, err := Decode(data)
		if err != nil {
			return
		}
		m := a.GBM
		// t3.NewModel refuses any feature count but the feature registry's
		// before it compiles; the bound here keeps the probe vectors small.
		if m.NumFeatures > 1<<10 {
			return
		}
		var thresholds []float64
		for i := range m.Trees {
			for _, n := range m.Trees[i].Nodes {
				thresholds = append(thresholds, n.Threshold)
			}
		}
		p := treec.Pack(m)
		if len(p.Nodes) != len(thresholds) {
			t.Fatalf("ensemble of %d nodes compiled to %d", len(thresholds), len(p.Nodes))
		}

		// The batch kernel scores rows one by one, so the count only sets how
		// many probe vectors a model gets.
		const nrows = 4
		rng := rand.New(rand.NewSource(int64(len(data))))
		rows := make([]float64, nrows*m.NumFeatures)
		for i := range rows {
			rows[i] = rng.NormFloat64() * 100
			if len(thresholds) > 0 && rng.Intn(4) == 0 {
				rows[i] = thresholds[rng.Intn(len(thresholds))]
			}
		}
		out := make([]float64, nrows)
		p.PredictRowsInto(rows, m.NumFeatures, out, nil)
		for r := range out {
			v := rows[r*m.NumFeatures : (r+1)*m.NumFeatures]
			got := p.Predict(v)
			if math.Float64bits(out[r]) != math.Float64bits(got) {
				t.Fatalf("row %d: PredictRowsInto %v != Predict %v", r, out[r], got)
			}
			if want := foldPredict(m, v); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("row %d: compiled %v != interpreted %v", r, got, want)
			}
		}
	})
}
