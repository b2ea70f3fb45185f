package treec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"t3/internal/gbdt"
	"t3/internal/par"
)

// TestPredictRowsIntoMatchesPredict pins the flat-row batch kernel's
// determinism contract: every row of a contiguous row-major arena must score
// bit-identically to a scalar Predict of the same vector, for any row count
// (the pool's 64-row split boundaries included) and any worker pool.
func TestPredictRowsIntoMatchesPredict(t *testing.T) {
	m := trainToy(t, 30, 12, 36)
	p := Pack(m)
	rng := rand.New(rand.NewSource(37))
	const stride = 3
	for _, n := range []int{0, 1, 7, 8, 9, 16, 100, 127, 128, 129, 1000} {
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

// chainTree is a tree of the given number of leaves that is one path: every
// node has a leaf on one side and the rest of the chain on the other, the
// left side when leftDeep. bias shifts the thresholds so that rows drawn
// around zero mostly follow the chain to its end.
func chainTree(rng *rand.Rand, leaves, numFeat int, leftDeep bool) gbdt.Tree {
	var t gbdt.Tree
	bias := -30.0
	if leftDeep {
		bias = 30
	}
	for i := 0; i < leaves-1; i++ {
		next := int32(i + 1)
		if i == leaves-2 {
			next = ^int32(leaves - 1)
		}
		n := gbdt.Node{Feature: int32(rng.Intn(numFeat)), Threshold: rng.NormFloat64()*10 + bias, Left: ^int32(i), Right: next}
		if leftDeep {
			n.Left, n.Right = n.Right, n.Left
		}
		t.Nodes = append(t.Nodes, n)
	}
	for i := 0; i < leaves; i++ {
		t.Leaves = append(t.Leaves, rng.NormFloat64())
	}
	return t
}

// checkRowsMatchWalker scores batches of 1 to 200 rows (the last long enough
// for the pool to split) on one and on three workers and requires every row
// to be bit-identical to Predict, and equal to the interpreter's fold
// outside a rounding gap. The first rows are all-NaN (right at every node),
// all -Inf (left at every node) and all +Inf, so the last and the first leaf
// of every tree are reached whatever its thresholds.
func checkRowsMatchWalker(t *testing.T, label string, m *gbdt.Model, rng *rand.Rand) {
	t.Helper()
	p := Pack(m)
	stride := m.NumFeatures
	gaps := Flatten(m)
	for _, n := range []int{1, 8, 9, 100, 200} {
		rows := make([]float64, n*stride)
		for i := range rows {
			rows[i] = rng.NormFloat64() * 10
			if r := i / stride; r < 3 && n > 3 {
				rows[i] = []float64{math.NaN(), math.Inf(-1), math.Inf(1)}[r]
			}
		}
		for _, workers := range []int{1, 3} {
			out := make([]float64, n)
			p.PredictRowsInto(rows, stride, out, par.Sized(workers))
			for i := range out {
				v := rows[i*stride : (i+1)*stride]
				if want := p.Predict(v); math.Float64bits(out[i]) != math.Float64bits(want) {
					t.Fatalf("%s, n=%d workers=%d row %d: PredictRowsInto %v != Predict %v", label, n, workers, i, out[i], want)
				}
				if ref := refFoldPredict(m, v); out[i] != ref && !gaps.InRoundingGap(v) {
					t.Fatalf("%s, row %d: %v != interpreter %v outside a rounding gap", label, i, out[i], ref)
				}
			}
		}
	}
}

// TestPredictRowsIntoOversizedTree pins the kernel's tree-size limit: a
// bitvector holds 64 leaves, so one tree of 65 sends the whole ensemble
// through Predict row by row — still bit-identical, serially and across a
// pool. The 64-leaf chains use the vector's ends: a left-deep root keeps
// only bit 63, a right-deep walk clears one bit per node down to it.
func TestPredictRowsIntoOversizedTree(t *testing.T) {
	const stride = 5
	for _, tc := range []struct {
		name   string
		tree   func(rng *rand.Rand) gbdt.Tree
		kernel bool
	}{
		{"64 leaves", func(rng *rand.Rand) gbdt.Tree { return wideTree(rng, 63, stride) }, true},
		{"65 leaves", func(rng *rand.Rand) gbdt.Tree { return wideTree(rng, 64, stride) }, false},
		{"301 leaves", func(rng *rand.Rand) gbdt.Tree { return wideTree(rng, 300, stride) }, false},
		{"left-deep 64", func(rng *rand.Rand) gbdt.Tree { return chainTree(rng, 64, stride, true) }, true},
		{"right-deep 64", func(rng *rand.Rand) gbdt.Tree { return chainTree(rng, 64, stride, false) }, true},
		{"right-deep 65", func(rng *rand.Rand) gbdt.Tree { return chainTree(rng, 65, stride, false) }, false},
	} {
		rng := rand.New(rand.NewSource(int64(len(tc.name))))
		m := &gbdt.Model{BaseScore: 0.5, NumFeatures: stride}
		m.Trees = append(m.Trees, wideTree(rng, 9, stride), tc.tree(rng), wideTree(rng, 20, stride))
		if got := Pack(m).quick != nil; got != tc.kernel {
			t.Fatalf("%s: bitvector layout built=%v, want %v", tc.name, got, tc.kernel)
		}
		checkRowsMatchWalker(t, tc.name, m, rng)
	}
}

// TestPredictRowsIntoBlockBoundary: trees are scored in blocks of 256, the
// sum carried across them in tree order. One short of a block, exactly one,
// one over, and two and a bit all match the walker; constant trees are folded
// into Base and take no slot.
func TestPredictRowsIntoBlockBoundary(t *testing.T) {
	const stride = 4
	for _, trees := range []int{255, 256, 257, 600} {
		rng := rand.New(rand.NewSource(int64(trees)))
		m := &gbdt.Model{BaseScore: -1, NumFeatures: stride}
		for i := 0; i < trees; i++ {
			if i%100 == 7 {
				m.Trees = append(m.Trees, gbdt.Tree{Leaves: []float64{rng.NormFloat64()}})
			}
			m.Trees = append(m.Trees, wideTree(rng, 1+rng.Intn(12), stride))
		}
		p := Pack(m)
		if got, want := len(p.quick), (trees+qsBlockTrees-1)/qsBlockTrees; got != want || len(p.Roots) != trees {
			t.Fatalf("%d trees: %d blocks over %d roots, want %d", trees, got, len(p.Roots), want)
		}
		checkRowsMatchWalker(t, fmt.Sprint(trees, " trees"), m, rng)
	}
}

// TestNaNThresholdGoesRight pins what a NaN threshold means. No model file
// can hold one (JSON has no NaN), but a model built in memory can, and both
// walkers send every row right at such a node, since v <= NaN never holds.
// The kernel's scan stops at the first true node of a feature, so Pack sorts
// NaN thresholds before all others — -Inf included, which an all -Inf row
// stops at immediately.
func TestNaNThresholdGoesRight(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	leafy := func(thr float64, l, r float64) gbdt.Tree {
		return gbdt.Tree{Nodes: []gbdt.Node{{Feature: 0, Threshold: thr, Left: ^0, Right: ^1}}, Leaves: []float64{l, r}}
	}
	m := &gbdt.Model{NumFeatures: 1, Trees: []gbdt.Tree{
		leafy(-inf, 1, 2), leafy(0, 4, 8), leafy(nan, 16, 32), leafy(inf, 64, 128), leafy(nan, 256, 512),
	}}
	p := Pack(m)
	if b := p.quick[0]; len(b.listEnd) != 1 || b.nodes[0].thr == b.nodes[0].thr || b.nodes[1].thr == b.nodes[1].thr ||
		b.nodes[0].tree != 2 || b.nodes[1].tree != 4 {
		t.Fatalf("NaN thresholds not first in (tree, node) order: %+v", b.nodes)
	}
	rows := []float64{-inf, -1, 0, 1, inf, nan}
	want := []float64{1 + 4 + 32 + 64 + 512, 2 + 4 + 32 + 64 + 512, 2 + 4 + 32 + 64 + 512, 2 + 8 + 32 + 64 + 512, 2 + 8 + 32 + 64 + 512, 2 + 8 + 32 + 128 + 512}
	out := make([]float64, len(rows))
	p.PredictRowsInto(rows, 1, out, nil)
	for i, x := range rows {
		if out[i] != want[i] || p.Predict(rows[i:i+1]) != want[i] || m.Predict(rows[i:i+1]) != want[i] {
			t.Errorf("x=%v: rows kernel %v, walker %v, interpreter %v, want %v", x, out[i], p.Predict(rows[i:i+1]), m.Predict(rows[i:i+1]), want[i])
		}
	}
}

// TestPredictRowsIntoArguments: an empty batch returns before anything else
// is looked at, whatever stride says; a non-empty one panics with the
// explicit message when rows is short or when stride cannot hold a feature
// vector, instead of faulting on an index inside the kernel.
func TestPredictRowsIntoArguments(t *testing.T) {
	p := Pack(trainToy(t, 5, 4, 40)) // 3 features
	for _, tc := range []struct {
		name         string
		rows, stride int
		out          int
		panics       bool
	}{
		{"empty batch, zero stride", 0, 0, 0, false},
		{"empty batch, negative stride", 6, -1, 0, false},
		{"exact", 6, 3, 2, false},
		{"padded stride", 8, 4, 2, false},
		{"short rows", 5, 3, 2, true},
		{"stride below the feature count", 6, 2, 3, true},
		{"zero stride", 6, 0, 2, true},
	} {
		msg := func() (msg string) {
			defer func() {
				if r := recover(); r != nil {
					msg = fmt.Sprint(r)
				}
			}()
			p.PredictRowsInto(make([]float64, tc.rows), tc.stride, make([]float64, tc.out), nil)
			return ""
		}()
		if tc.panics != strings.HasPrefix(msg, "treec: PredictRowsInto") {
			t.Errorf("%s: panic %q, want an explicit one: %v", tc.name, msg, tc.panics)
		}
	}
}

func parPool(workers int) *par.Pool { return par.Sized(workers) }

// TestPredictRowsIntoZeroAlloc: the serial kernel must not allocate, from the
// first call on — Pack builds its layout, nothing is left to build lazily.
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
	if allocs := testing.AllocsPerRun(100, func() {
		p.PredictRowsInto(rows, stride, out, nil)
	}); allocs != 0 {
		t.Fatalf("PredictRowsInto allocates %.1f objects per run, want 0", allocs)
	}
}
