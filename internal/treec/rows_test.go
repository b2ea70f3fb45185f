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

// blockSizes are the batch lengths around the kernel's block of qsRows rows
// and the pool's chunk of rowsPerTask: a tail alone, exactly one and two
// blocks, one row either side of each, and the lengths the pool splits.
var blockSizes = []int{1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 129, 200}

// nearDuplicateRows fills n rows of the given stride with the shape of one
// enumeration wave: every row is one normal base vector (sd 10) with one to
// three features redrawn, so the rows of a block fail almost the same
// prefixes and the shared bitvector carries most nodes.
func nearDuplicateRows(rng *rand.Rand, n, stride int) []float64 {
	base := make([]float64, stride)
	for j := range base {
		base[j] = rng.NormFloat64() * 10
	}
	rows := make([]float64, 0, n*stride)
	for r := 0; r < n; r++ {
		rows = append(rows, base...)
		for c := 1 + rng.Intn(3); c > 0; c-- {
			rows[r*stride+rng.Intn(stride)] = rng.NormFloat64() * 10
		}
	}
	return rows
}

// waveRows is nearDuplicateRows with every ninth row from the second — one to
// a block, at a different lane each time — instead all NaN (fails every list
// to its end), all -Inf (fails nothing but NaN thresholds, so min k drops to
// zero) or all +Inf (fails all but +Inf thresholds).
func waveRows(rng *rand.Rand, n, stride int) []float64 {
	rows := nearDuplicateRows(rng, n, stride)
	for r := 1; r < n; r += 9 {
		for j := r * stride; j < (r+1)*stride; j++ {
			rows[j] = []float64{math.NaN(), math.Inf(-1), math.Inf(1)}[r/9%3]
		}
	}
	return rows
}

// checkRowsMatchWalker scores batches of every length in blockSizes, of
// independent rows and of waveRows, on one and on three workers, and requires
// every row to be bit-identical to Predict, and equal to the interpreter's
// fold outside a rounding gap. The first independent rows are all-NaN (right
// at every node), all -Inf (left at every node) and all +Inf, so the last and
// the first leaf of every tree are reached whatever its thresholds.
func checkRowsMatchWalker(t *testing.T, label string, m *gbdt.Model, rng *rand.Rand) {
	t.Helper()
	p := Pack(m)
	stride := m.NumFeatures
	gaps := Flatten(m)
	for _, n := range blockSizes {
		independent := make([]float64, n*stride)
		for i := range independent {
			independent[i] = rng.NormFloat64() * 10
			if r := i / stride; r < 3 && n > 3 {
				independent[i] = []float64{math.NaN(), math.Inf(-1), math.Inf(1)}[r]
			}
		}
		for kind, rows := range [][]float64{independent, waveRows(rng, n, stride)} {
			for _, workers := range []int{1, 3} {
				out := make([]float64, n)
				p.PredictRowsInto(rows, stride, out, par.Sized(workers))
				for i := range out {
					v := rows[i*stride : (i+1)*stride]
					if want := p.Predict(v); math.Float64bits(out[i]) != math.Float64bits(want) {
						t.Fatalf("%s, n=%d kind=%d workers=%d row %d: PredictRowsInto %v != Predict %v", label, n, kind, workers, i, out[i], want)
					}
					if ref := refFoldPredict(m, v); out[i] != ref && !gaps.InRoundingGap(v) {
						t.Fatalf("%s, n=%d kind=%d row %d: %v != interpreter %v outside a rounding gap", label, n, kind, i, out[i], ref)
					}
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
	if b := p.quick[0]; len(b.lists) != 1 || b.thr[0] == b.thr[0] || b.thr[1] == b.thr[1] || b.lists[0].first == b.lists[0].first ||
		b.tree[0] != 2 || b.tree[1] != 4 {
		t.Fatalf("NaN thresholds not first in (tree, node) order: thr %v tree %v", b.thr, b.tree)
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

// TestMaskCountsSharedPrefix is the kernel's speed-up as a count, not a
// duration: on a wave of near-duplicate rows the block split applies at most
// half the masks a row-at-a-time kernel does. The input is synthetic and
// seeded: 200 random trees of 30 nodes over 64 features (normal thresholds,
// sd 10), and 256 nearDuplicateRows — so of a block's 64 lists some 16 differ
// between its rows and the other 48 are failed to the same node by all eight.
func TestMaskCountsSharedPrefix(t *testing.T) {
	const stride, n = 64, 256
	rng := rand.New(rand.NewSource(21))
	m := &gbdt.Model{BaseScore: 1, NumFeatures: stride}
	for i := 0; i < 200; i++ {
		m.Trees = append(m.Trees, wideTree(rng, 30, stride))
	}
	p := Pack(m)
	rows := nearDuplicateRows(rng, n, stride)
	// falseNodes counts, from the walker's layout, the nodes rows [lo, hi)
	// fail: what any QuickScorer applies without sharing.
	falseNodes := func(lo, hi int) (c int) {
		for r := lo; r < hi; r++ {
			for _, nd := range p.Nodes {
				if !(rows[r*stride+int(nd.Feature)] <= float64(nd.Thr)) {
					c++
				}
			}
		}
		return c
	}

	shared, own, perRow := p.MaskCounts(rows, stride, n)
	if perRow != falseNodes(0, n) || qsRows*shared+own != perRow {
		t.Fatalf("%d rows: shared %d, own %d, perRow %d; the rows fail %d nodes", n, shared, own, perRow, falseNodes(0, n))
	}
	if 2*(shared+own) > perRow {
		t.Fatalf("full blocks apply %d shared + %d own masks, more than half of the %d a row-at-a-time kernel applies", shared, own, perRow)
	}
	t.Logf("masks per row: %.0f shared + %.0f own against %.0f unshared", float64(shared)/n, float64(own)/n, float64(perRow)/n)

	// Fewer rows than a block share nothing, wherever in the wave they are.
	for k := 0; k < qsRows; k++ {
		shared, own, perRow := p.MaskCounts(rows[k*stride:], stride, k)
		if shared != 0 || own != perRow || perRow != falseNodes(k, 2*k) {
			t.Fatalf("%d rows: shared %d, own %d, perRow %d, want 0, %d, %d", k, shared, own, perRow, falseNodes(k, 2*k), falseNodes(k, 2*k))
		}
	}

	// The pool cuts a batch at multiples of rowsPerTask, a multiple of the
	// block: no cut moves a row into another block, so the counts add up.
	const long = 200 // 25 blocks, no tail; cut also where the second part is 8 rows
	s0, o0, p0 := p.MaskCounts(rows, stride, long)
	for cut := rowsPerTask; cut < long; cut += rowsPerTask {
		s1, o1, p1 := p.MaskCounts(rows, stride, cut)
		s2, o2, p2 := p.MaskCounts(rows[cut*stride:], stride, long-cut)
		if s1+s2 != s0 || o1+o2 != o0 || p1+p2 != p0 {
			t.Fatalf("cut at %d: (%d, %d, %d) + (%d, %d, %d) != (%d, %d, %d)", cut, s1, o1, p1, s2, o2, p2, s0, o0, p0)
		}
	}
	if rowsPerTask%qsRows != 0 {
		t.Fatalf("rowsPerTask %d is not a multiple of the block of %d rows: a chunk boundary would make a tail", rowsPerTask, qsRows)
	}

	if allocs := testing.AllocsPerRun(10, func() { p.MaskCounts(rows, stride, n) }); allocs != 0 {
		t.Fatalf("MaskCounts allocates %.1f objects per run, want 0", allocs)
	}
}

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
