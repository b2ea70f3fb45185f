package gbdt

import (
	"math/rand"
	"testing"
)

// growCase decodes fuzz bytes into a tiny training problem. The leading
// bytes pick the shape — rows, features, leaf budget, MinDataInLeaf (so that
// n < 2·MinDataInLeaf happens), bagging and feature fraction, rounds — and a
// kind per column; the cells and the gradients come from an rng the bytes
// seed. A missing byte reads as 0.
type growCase struct {
	p      Params
	rounds int
	xs     [][]float64
	rng    *rand.Rand
}

func decodeGrowCase(data []byte) growCase {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 1 + (next()|next()<<8)%300
	nf := 1 + next()%12
	p := DefaultParams()
	p.NumLeaves = 2 + next()%30
	p.MinDataInLeaf = 1 + next()%24
	p.BaggingFraction = []float64{1, 0.7, 0.5, 0.05}[next()%4]
	p.FeatureFraction = []float64{1, 0.8, 0.4}[next()%3]
	c := growCase{p: p, rounds: 1 + next()%3}
	c.rng = rand.New(rand.NewSource(int64(next() | next()<<8)))

	c.xs = make([][]float64, n)
	for i := range c.xs {
		c.xs[i] = make([]float64, nf)
	}
	for f := 0; f < nf; f++ {
		switch kind := next() % 6; kind {
		case 0: // constant at zero: one bin, every row in it
		case 1: // constant elsewhere
			for i := range c.xs {
				c.xs[i][f] = 3
			}
		case 2: // a single row off the default
			c.xs[c.rng.Intn(n)][f] = 1
		case 3: // up to 255 distinct values, one bin each
			for i := range c.xs {
				c.xs[i][f] = float64(c.rng.Intn(255))
			}
		case 4: // sparse: most rows at a value inside the column's range
			for i := range c.xs {
				if c.rng.Intn(100) >= 85 {
					c.xs[i][f] = float64(c.rng.Intn(9) - 4)
				}
			}
		case 5: // dense, few values: the default is just the biggest bin
			for i := range c.xs {
				c.xs[i][f] = float64(c.rng.Intn(4))
			}
		}
	}
	return c
}

// checkGrow grows the case's trees with the production grower and with the
// reference grower under dyadic gradients and requires: the same tree, bit
// for bit; every leaf's range of the partition holding exactly the rows the
// tree routes to it; a model Validate accepts.
func checkGrow(t *testing.T, data []byte) {
	c := decodeGrowCase(data)
	if err := c.p.Validate(); err != nil {
		t.Fatal(err)
	}
	bnr := newBinner(c.xs, len(c.xs[0]), c.p.MaxBins)
	td := newTrainData(bnr, c.xs, make([]float64, len(c.xs)))
	seed := c.rng.Int63()
	prod := newGrower(td, bnr, c.p, rand.New(rand.NewSource(seed)))
	ref := &refGrower{td: td, bnr: bnr, p: c.p, rng: rand.New(rand.NewSource(seed))}

	m := &Model{NumFeatures: td.f, Params: c.p}
	grad := make([]float64, td.n)
	hess := make([]float64, td.n)
	for round := 0; round < c.rounds; round++ {
		dyadicGrads(c.rng, grad, hess)
		tree := prod.grow(grad, hess)
		requireTreesBitIdentical(t, round, tree, ref.grow(grad, hess))
		requirePartitionMatchesRouting(t, round, prod, tree)
		m.Trees = append(m.Trees, *tree)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("grown model does not validate: %v", err)
	}
}

// FuzzGrow checks the production grower against the reference grower on
// problems decoded from the fuzz input (see growCase). The checked-in corpus
// under testdata/fuzz/FuzzGrow names the shapes that matter: leaves below
// 2·MinDataInLeaf, all-constant columns, one row off its default, 255-bin
// columns, heavy bagging.
func FuzzGrow(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{199, 0, 11, 29, 4, 1, 1, 2, 7, 0, 0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5})
	f.Fuzz(checkGrow)
}

// TestGrowMany is the deterministic property-test mode of the same harness.
func TestGrowMany(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		data := make([]byte, 10+12)
		rng.Read(data)
		checkGrow(t, data)
	}
}
