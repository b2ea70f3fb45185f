package gbdt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sparseSynth generates rows shaped like T3's pipeline vectors: about 85 % of
// a column's cells hold one value, which is not the column's smallest, so the
// default bin sits inside the prefix scan; columns 0 and 1 are constant (at
// zero and not), column 2 leaves its default in a single row, column 3 only
// in the last third of the rows (in row order, a set first lists it late),
// and the last column has exactly 255 distinct values, one bin each at
// MaxBins 255.
func sparseSynth(n, f int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	for i := range xs {
		x := make([]float64, f)
		x[1] = 7
		if i == n/3 {
			x[2] = 1
		}
		if i >= 2*n/3 {
			x[3] = float64(rng.Intn(4))
		}
		for j := 4; j < f-1; j++ {
			if rng.Float64() >= 0.85 {
				x[j] = float64(rng.Intn(2*j) - j)
			}
		}
		x[f-1] = float64(rng.Intn(255))
		xs[i] = x
	}
	return xs
}

// growBoth grows `rounds` trees on xs twice from identical state — the
// production grower and the reference grower — under dyadic gradients and
// hands each pair to check, after checking the production partition.
// bagging < 1 exercises the rng-driven sampling paths too: both growers draw
// the same bagging and feature permutations from identically seeded rngs.
func growBoth(t *testing.T, xs [][]float64, bagging float64, rounds int, check func(round int, prod, ref *Tree)) {
	t.Helper()
	ys := make([]float64, len(xs))
	p := DefaultParams()
	p.NumLeaves = 31
	p.MinDataInLeaf = 5
	p.BaggingFraction = bagging
	p.FeatureFraction = 0.8
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}

	bnr := newBinner(xs, len(xs[0]), p.MaxBins)
	td := newTrainData(bnr, xs, ys)
	prod := newGrower(td, bnr, p, rand.New(rand.NewSource(11)))
	ref := &refGrower{td: td, bnr: bnr, p: p, rng: rand.New(rand.NewSource(11))}

	grng := rand.New(rand.NewSource(99))
	grad := make([]float64, td.n)
	hess := make([]float64, td.n)
	for round := 0; round < rounds; round++ {
		dyadicGrads(grng, grad, hess)
		tree := prod.grow(grad, hess)
		requirePartitionMatchesRouting(t, round, prod, tree)
		check(round, tree, ref.grow(grad, hess))
	}
}

// TestHistSubtractionBitIdenticalDyadic grows many trees under exactly
// representable gradients, on dense rows and on sparse ones, and asserts the
// production grower — non-default cells, derived default bin, feature lists,
// subtraction — and the brute-force reference produce bit-identical trees:
// with exact sums they are the same arithmetic. Unbagged, the sparse rows are
// built in row order.
func TestHistSubtractionBitIdenticalDyadic(t *testing.T) {
	dense, _ := synth(3000, 5)
	sparse := sparseSynth(9000, 14, 6)
	for _, tc := range []struct {
		name    string
		xs      [][]float64
		bagging float64
	}{{"dense", dense, 0.7}, {"sparse", sparse, 0.7}, {"sparse in row order", sparse, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			growBoth(t, tc.xs, tc.bagging, 10, func(round int, prod, ref *Tree) {
				requireTreesBitIdentical(t, round, prod, ref)
				if round == 0 && len(prod.Nodes) < 5 {
					t.Fatalf("degenerate tree (%d nodes); test exercises nothing", len(prod.Nodes))
				}
			})
		})
	}
}

// TestHistSubtractionBitIdenticalTrain asserts full-model bit identity
// through the public Train path — root sums, loss, histogram builds. One
// boosting round over 2^k rows with dyadic targets keeps every gradient, the
// base score, and all histogram sums exact, so the serialized models must
// match byte for byte. 8192 and 16384 rows put the root and the first
// leaves at two and four times 4096 rows, the size above which the trainer
// once built histograms in chunks.
func TestHistSubtractionBitIdenticalTrain(t *testing.T) {
	for _, n := range []int{2048, 8192, 16384} { // powers of two: the base-score mean stays exact
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			xs := make([][]float64, n)
			ys := make([]float64, n)
			for i := range xs {
				xs[i] = []float64{rng.Float64() * 10, rng.Float64(), float64(rng.Intn(7))}
				ys[i] = float64(rng.Intn(129)) / 4 // dyadic targets in [0, 32]
			}
			p := DefaultParams()
			p.NumRounds = 1
			p.Objective = ObjectiveL2
			p.Seed = 3
			p.MinDataInLeaf = 5
			p.ValidationFraction = 0 // keep all 2^k rows: the mean stays exact
			m, _, err := Train(p, xs, ys, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			prod, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := json.Marshal(refTrain(t, p, xs, ys))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(prod, ref) {
				t.Fatal("Train and the reference trainer differ under exact gradients")
			}
		})
	}
}

// TestHistSubtractionFullTrainingAgrees compares complete multi-round
// training runs with arbitrary (non-dyadic) gradients. A subtracted bin and a
// derived default bin can round differently from a summed one in the last
// ulp, so this checks the models agree functionally: held-out predictions
// match to within a tight relative tolerance.
func TestHistSubtractionFullTrainingAgrees(t *testing.T) {
	xs, ys := synth(3000, 8)
	p := DefaultParams()
	p.NumRounds = 40
	p.Objective = ObjectiveL2
	p.Seed = 9
	p.ValidationFraction = 0
	prod, _, err := Train(p, xs, ys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := refTrain(t, p, xs, ys)
	tx, _ := synth(500, 10)
	for i, x := range tx {
		a, b := prod.Predict(x), ref.Predict(x)
		if d := math.Abs(a - b); d > 1e-9*(1+math.Abs(b)) {
			t.Fatalf("row %d: predictions diverge: %v vs %v (diff %v)", i, a, b, d)
		}
	}
}

// TestTrainDataNonDefaultLayout pins the layout histograms are built from: a
// feature's default bin is its most frequent one, the lowest on a tie, and a
// row's cells are the histogram indices of exactly its features off their
// default, in feature order.
func TestTrainDataNonDefaultLayout(t *testing.T) {
	xs := sparseSynth(500, 10, 4)
	for i := range xs {
		xs[i][4] = float64(i % 2) // a tie between two bins: the lower one is the default
	}
	bnr := newBinner(xs, len(xs[0]), 255)
	td := newTrainData(bnr, xs, make([]float64, len(xs)))
	if len(td.binFeat) != int(td.featOff[td.f]) {
		t.Fatalf("featOff ends at %d, binFeat has %d entries", td.featOff[td.f], len(td.binFeat))
	}
	for f := 0; f < td.f; f++ {
		counts := make([]int, bnr.numBins(f))
		for _, b := range td.bins[f] {
			counts[b]++
		}
		want := 0
		for b, c := range counts {
			if c > counts[want] {
				want = b
			}
		}
		if int(td.defBin[f]) != want {
			t.Errorf("feature %d: default bin %d, most frequent (lowest on a tie) is %d of %v", f, td.defBin[f], want, counts)
		}
	}
	if td.defBin[4] != 0 || td.defBin[5] == 0 {
		t.Errorf("default bins of the tied and of a mid-range column: %d, %d", td.defBin[4], td.defBin[5])
	}
	for r := 0; r < td.n; r++ {
		var want, feats []int32
		for f := 0; f < td.f; f++ {
			if b := td.bins[f][r]; b != td.defBin[f] {
				want = append(want, td.featOff[f]+int32(b))
				feats = append(feats, int32(f))
			}
		}
		got := td.cells[td.cellOff[r]:td.cellOff[r+1]]
		if len(got) != len(want) {
			t.Fatalf("row %d: cells %v, want %v", r, got, want)
		}
		for i := range got {
			if got[i] != want[i] || td.binFeat[got[i]] != feats[i] {
				t.Fatalf("row %d: cells %v, want %v of features %v", r, got, want, feats)
			}
		}
	}
}
