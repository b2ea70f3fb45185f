package treec

import (
	"math"
	"math/rand"
	"testing"

	"t3/internal/gbdt"
	"t3/internal/par"
)

// TestPredictRowsIntoMatchesPredict pins the flat-row batch kernel's
// determinism contract: every row of a contiguous row-major arena must score
// bit-identically to a scalar Predict of the same vector, for any row count
// (block boundaries included) and any worker pool.
func TestPredictRowsIntoMatchesPredict(t *testing.T) {
	m := trainToy(t, 30, 12, 36)
	p := Pack(m)
	rng := rand.New(rand.NewSource(37))
	const stride = 3
	for _, n := range []int{0, 1, 7, 8, 9, 16, 100, 1000} {
		rows := make([]float64, n*stride)
		for i := 0; i < n; i++ {
			rows[i*stride+0] = rng.Float64() * 8
			rows[i*stride+1] = rng.Float64() * 200
			rows[i*stride+2] = float64(rng.Intn(10))
		}
		out := make([]float64, n)
		p.PredictRowsInto(rows, stride, out, nil)
		for i := 0; i < n; i++ {
			if want := p.Predict(rows[i*stride : (i+1)*stride]); out[i] != want {
				t.Fatalf("n=%d row %d: PredictRowsInto %v != Predict %v", n, i, out[i], want)
			}
		}
		for _, workers := range []int{1, 2, 5, 8} {
			par := make([]float64, n)
			p.PredictRowsInto(rows, stride, par, parPool(workers))
			for i := range out {
				if par[i] != out[i] {
					t.Fatalf("n=%d workers=%d row %d: %v != %v", n, workers, i, par[i], out[i])
				}
			}
		}
	}
}

// wideTree grows a random tree with exactly the given number of interior
// nodes: each new node replaces a random leaf slot of the tree so far.
func wideTree(rng *rand.Rand, interior, numFeat int) gbdt.Tree {
	var t gbdt.Tree
	newLeaf := func() int32 {
		t.Leaves = append(t.Leaves, rng.NormFloat64())
		return ^int32(len(t.Leaves) - 1)
	}
	newNode := func() int32 {
		t.Nodes = append(t.Nodes, gbdt.Node{
			Feature:   int32(rng.Intn(numFeat)),
			Threshold: rng.NormFloat64() * 10,
			Left:      newLeaf(),
			Right:     newLeaf(),
		})
		return int32(len(t.Nodes) - 1)
	}
	newNode()
	for len(t.Nodes) < interior {
		// Turn one leaf slot into a node; its old leaf value becomes unused
		// but stays in Leaves, which the evaluators never notice.
		pi, left := rng.Intn(len(t.Nodes)), rng.Intn(2) == 0
		if left && t.Nodes[pi].Left < 0 {
			c := newNode() // may reallocate t.Nodes: index after, not before
			t.Nodes[pi].Left = c
		} else if !left && t.Nodes[pi].Right < 0 {
			c := newNode()
			t.Nodes[pi].Right = c
		}
	}
	return t
}

// TestPredictRowsIntoOversizedTree pins the case the 8-wide layout cannot
// hold: a tree with 128 or more interior nodes overflows its uint8 child
// offsets, so PredictRowsInto scores every row through Predict — still
// bit-identical per row, serially and across a pool. 127 interior nodes is
// the largest tree the kernel takes.
func TestPredictRowsIntoOversizedTree(t *testing.T) {
	const stride = 5
	for _, tc := range []struct {
		interior int
		kernel   bool
	}{{127, true}, {128, false}, {300, false}} {
		rng := rand.New(rand.NewSource(int64(tc.interior)))
		m := &gbdt.Model{BaseScore: 0.5, NumFeatures: stride}
		m.Trees = append(m.Trees, wideTree(rng, 9, stride), wideTree(rng, tc.interior, stride), wideTree(rng, 20, stride))
		p := Pack(m)
		if got := p.rowsKernel().ok; got != tc.kernel {
			t.Fatalf("%d interior nodes: rows layout ok=%v, want %v", tc.interior, got, tc.kernel)
		}
		for _, n := range []int{1, 8, 9, 100} {
			rows := make([]float64, n*stride)
			for i := range rows {
				rows[i] = rng.NormFloat64() * 10
			}
			for _, workers := range []int{1, 3} {
				out := make([]float64, n)
				p.PredictRowsInto(rows, stride, out, par.Sized(workers))
				for i := range out {
					v := rows[i*stride : (i+1)*stride]
					if want := p.Predict(v); math.Float64bits(out[i]) != math.Float64bits(want) {
						t.Fatalf("%d interior nodes, n=%d workers=%d row %d: PredictRowsInto %v != Predict %v",
							tc.interior, n, workers, i, out[i], want)
					}
					if ref := m.Predict(v); !p.Exact && out[i] != ref && !Flatten(m).InRoundingGap(v) {
						t.Fatalf("%d interior nodes row %d: %v != interpreter %v outside a rounding gap", tc.interior, i, out[i], ref)
					}
				}
			}
		}
	}
}

func parPool(workers int) *par.Pool { return par.Sized(workers) }

// TestPredictRowsIntoZeroAlloc: the serial flat-row kernel must not allocate.
func TestPredictRowsIntoZeroAlloc(t *testing.T) {
	m := trainToy(t, 30, 12, 38)
	p := Pack(m)
	rng := rand.New(rand.NewSource(39))
	const stride = 3
	n := 64
	rows := make([]float64, n*stride)
	for i := range rows {
		rows[i] = rng.Float64() * 50
	}
	out := make([]float64, n)
	p.PredictRowsInto(rows, stride, out, nil) // build the lazy row-kernel layout
	if allocs := testing.AllocsPerRun(100, func() {
		p.PredictRowsInto(rows, stride, out, nil)
	}); allocs != 0 {
		t.Fatalf("PredictRowsInto allocates %.1f objects per run, want 0", allocs)
	}
}
