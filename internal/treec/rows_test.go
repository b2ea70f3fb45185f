package treec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"t3/internal/gbdt"
	"t3/internal/par"
)

// TestPredictRowsIntoMatchesPredict pins the flat-row batch kernel's
// determinism contract: every row of a contiguous row-major arena must score
// bit-identically to a scalar Predict of the same vector, for any row count
// (the pool's 32-row task boundaries and the 64-row fan-out threshold
// included) and any worker pool.
func TestPredictRowsIntoMatchesPredict(t *testing.T) {
	m := trainToy(t, 30, 12, 36)
	p := Pack(m)
	rng := rand.New(rand.NewSource(37))
	const stride = 3
	for _, n := range []int{0, 1, 7, 8, 9, 16, 31, 32, 33, 63, 64, 65, 66, 97, 98, 99, 100, 127, 128, 129, 1000} {
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
			p.PredictRowsInto(rows, stride, par, fanOver(workers))
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
			Threshold: float64(float32(rng.NormFloat64() * 10)),
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
		n := gbdt.Node{Feature: int32(rng.Intn(numFeat)), Threshold: float64(float32(rng.NormFloat64()*10 + bias)), Left: ^int32(i), Right: next}
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
// and the pool's chunk of rowsPerTask: a lone row, partial blocks of every
// width alone and after a full block, exactly one and two blocks, one row
// either side of each, and the lengths the pool splits.
var blockSizes = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 16, 17, 63, 64, 65, 71, 129, 200}

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
// every row to be bit-identical to Predict and to the interpreter's fold. The
// first independent rows are all-NaN (right at every node), all -Inf (left at
// every node) and all +Inf, so the last and the first leaf of every tree are
// reached whatever its thresholds.
func checkRowsMatchWalker(t *testing.T, label string, m *gbdt.Model, rng *rand.Rand) {
	t.Helper()
	p := Pack(m)
	stride := m.NumFeatures
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
				p.PredictRowsInto(rows, stride, out, fanOver(workers))
				for i := range out {
					v := rows[i*stride : (i+1)*stride]
					if want := p.Predict(v); math.Float64bits(out[i]) != math.Float64bits(want) {
						t.Fatalf("%s, n=%d kind=%d workers=%d row %d: PredictRowsInto %v != Predict %v", label, n, kind, workers, i, out[i], want)
					}
					if ref := refFoldPredict(m, v); math.Float64bits(out[i]) != math.Float64bits(ref) {
						t.Fatalf("%s, n=%d kind=%d row %d: %v != interpreter %v", label, n, kind, i, out[i], ref)
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

// TestPredictRowsFromArguments: PredictRowsFrom checks the rows as
// PredictRowsInto does, and panics explicitly when there are fewer starts
// than rows, when a row names a start that was not added, or when the starts
// belong to another ensemble.
func TestPredictRowsFromArguments(t *testing.T) {
	p, q := Pack(trainToy(t, 5, 4, 40)), Pack(trainToy(t, 5, 4, 41)) // 3 features
	s := p.NewStarts([]int{1})
	s.Add([]float64{1, 2, 3})
	s.Add([]float64{4, 5, 6})
	rows := []float64{1, 7, 3, 4, 8, 6}
	for _, tc := range []struct {
		name   string
		p      *Packed
		start  []int32
		rows   int
		panics string
	}{
		{"two rows, two starts", p, []int32{0, 1}, 2, ""},
		{"no rows, no starts", p, nil, 0, ""},
		{"one start short", p, []int32{0}, 2, "treec: PredictRowsFrom has"},
		{"a start not added", p, []int32{0, 2}, 2, "treec: PredictRowsFrom row starts from 2 of 2"},
		{"negative start", p, []int32{-1, 0}, 2, "treec: PredictRowsFrom row starts from -1"},
		{"another ensemble's starts", q, []int32{0, 1}, 2, "treec: PredictRowsFrom has"},
		{"short rows", p, []int32{0, 1, 0}, 3, "treec: PredictRowsFrom rows"},
	} {
		msg := func() (msg string) {
			defer func() {
				if r := recover(); r != nil {
					msg = fmt.Sprint(r)
				}
			}()
			tc.p.PredictRowsFrom(rows, 3, s, tc.start, make([]float64, tc.rows), nil)
			return ""
		}()
		if (tc.panics == "") != (msg == "") || !strings.HasPrefix(msg, tc.panics) {
			t.Errorf("%s: panic %q, want one starting %q", tc.name, msg, tc.panics)
		}
	}
	out := make([]float64, 2)
	p.PredictRowsFrom(rows, 3, s, []int32{0, 1}, out, nil)
	for i := range out {
		if want := p.Predict(rows[i*3 : i*3+3]); out[i] != want {
			t.Errorf("row %d: PredictRowsFrom %v, Predict %v", i, out[i], want)
		}
	}
}

// fanOver is a fresh Fan over the cached pool of the given size.
func fanOver(workers int) *Fan { return &Fan{Pool: par.Sized(workers)} }

// loneRowMasks counts, from the sorted layout and the walker's predicate but
// not from the checkpoints, what the kernel should apply for row v alone: per
// list its k false nodes (perRow) — or, when fewer, one AND per tree among the
// nodes a checkpoint stands for plus the nodes past it, the checkpoint being
// the last at a multiple of qsCkStride below the list's length (want).
func loneRowMasks(p *Packed, v []float64) (want, perRow int) {
	for bi := range p.quick {
		b := &p.quick[bi]
		at := 0
		for _, l := range b.lists {
			k := 0
			for j := at; j < int(l.end); j++ {
				if !(v[l.feat] <= float64(b.thr[j])) {
					k++
				}
			}
			c := min(k, int(l.end)-at-1) / qsCkStride
			trees := map[uint8]bool{}
			for j := at; j < at+c*qsCkStride; j++ {
				trees[b.tree[j]] = true
			}
			want, perRow = want+min(k, len(trees)+k-c*qsCkStride), perRow+k
			at = int(l.end)
		}
	}
	return want, perRow
}

// TestMaskCountsSharedPrefix is the kernel's speed-up as a count, not a
// duration. The input is synthetic and seeded: 200 random trees of 30 nodes
// over 64 features (normal thresholds, sd 10), and 256 nearDuplicateRows — so
// of a block's 64 lists some 16 differ between its rows and the other 48 are
// failed to the same node by all of them. A lone row pays per list what its
// checkpoint and the nodes past it cost, and so does each of one to three
// rows, which go one by one; a block of four to eight rows pays its shared
// prefix once and less than its rows would alone; a wave of them applies at
// most a quarter of the masks a row-at-a-time kernel does.
func TestMaskCountsSharedPrefix(t *testing.T) {
	const stride, n = 64, 256
	rng := rand.New(rand.NewSource(21))
	m := &gbdt.Model{BaseScore: 1, NumFeatures: stride}
	for i := 0; i < 200; i++ {
		m.Trees = append(m.Trees, wideTree(rng, 30, stride))
	}
	p := Pack(m)
	rows := nearDuplicateRows(rng, n, stride)

	alone := make([]int, n) // masks row r costs in a call of its own
	unshared := 0
	for r := range alone {
		want, perRow := loneRowMasks(p, rows[r*stride:(r+1)*stride])
		w := p.MaskCounts(rows[r*stride:], stride, 1, nil)
		if w.Shared != 0 || w.Own != want || w.PerRow != perRow {
			t.Fatalf("row %d alone: shared %d, own %d, perRow %d, want 0, %d, %d", r, w.Shared, w.Own, w.PerRow, want, perRow)
		}
		alone[r], unshared = want, unshared+perRow
	}

	w := p.MaskCounts(rows, stride, n, nil)
	shared, own, perRow := w.Shared, w.Own, w.PerRow
	if w.Lists != n*len(p.quick[0].lists) {
		t.Fatalf("%d rows: %d list searches, want %d: every row searches every list", n, w.Lists, n*len(p.quick[0].lists))
	}
	if perRow != unshared {
		t.Fatalf("%d rows: perRow %d, but the rows fail %d nodes", n, perRow, unshared)
	}
	if 4*(shared+own) > perRow {
		t.Fatalf("blocks apply %d shared + %d own masks, more than a quarter of the %d a row-at-a-time kernel applies", shared, own, perRow)
	}
	t.Logf("masks per row: %.0f shared + %.0f own against %.0f unshared", float64(shared)/n, float64(own)/n, float64(perRow)/n)

	// Every call length up to a block: below qsMinBlock rows each costs what it
	// costs alone; from there on, near-duplicates share.
	for m := 1; m <= qsRows; m++ {
		for r0 := 0; r0+m <= n; r0 += 37 {
			w := p.MaskCounts(rows[r0*stride:], stride, m, nil)
			shared, own := w.Shared, w.Own
			sum := 0
			for _, a := range alone[r0 : r0+m] {
				sum += a
			}
			blocked := m >= qsMinBlock
			if blocked != (shared > 0) || (blocked && shared+own >= sum) || (!blocked && own != sum) {
				t.Fatalf("block of %d at row %d: shared %d + own %d against %d alone", m, r0, shared, own, sum)
			}
		}
	}

	// The pool cuts a batch at multiples of rowsPerTask, a multiple of the
	// block: no cut moves a row into another block, so the counts add up.
	const long = 200 // 25 blocks; cut also where the second part is 8 rows
	w0 := p.MaskCounts(rows, stride, long, nil)
	for cut := rowsPerTask; cut < long; cut += rowsPerTask {
		w1 := p.MaskCounts(rows, stride, cut, nil)
		w2 := p.MaskCounts(rows[cut*stride:], stride, long-cut, nil)
		if w1.Plus(w2) != w0 {
			t.Fatalf("cut at %d: %+v + %+v != %+v", cut, w1, w2, w0)
		}
	}
	if rowsPerTask%qsRows != 0 {
		t.Fatalf("rowsPerTask %d is not a multiple of the block of %d rows: a chunk boundary would make a partial block", rowsPerTask, qsRows)
	}

	if allocs := testing.AllocsPerRun(10, func() { p.MaskCounts(rows, stride, n, nil) }); allocs != 0 {
		t.Fatalf("MaskCounts allocates %.1f objects per run, want 0", allocs)
	}
}

// TestMaskCountsStarts splits the work of rows that equal their base outside
// a feature set: the rows search the set's lists only, and the false nodes
// they no longer search are their base's, found once by Starts.Add — so the
// rows' Σ k from their starts plus the base's Σ k outside the set, once per
// row, is the Σ k of scoring them from all leaves, node for node.
func TestMaskCountsStarts(t *testing.T) {
	const stride, n = 64, 200
	rng := rand.New(rand.NewSource(23))
	m := &gbdt.Model{BaseScore: 1, NumFeatures: stride}
	for i := 0; i < 200; i++ {
		m.Trees = append(m.Trees, wideTree(rng, 30, stride))
	}
	p := Pack(m)
	var set []int
	for f := 0; f < stride; f += 4 {
		set = append(set, f)
	}
	rows := nearDuplicateRows(rng, n, stride) // one base, redrawn features anywhere
	base := slices.Clone(rows[:stride])
	for r := 1; r < n; r++ {
		for f := range base {
			if f%4 != 0 {
				rows[r*stride+f] = base[f]
			}
		}
	}
	s := p.NewStarts(set)
	s.Add(base)
	from, all := p.MaskCounts(rows, stride, n, s), p.MaskCounts(rows, stride, n, nil)
	if want := n * len(s.walk[0]); from.Lists != want || len(s.walk[0]) >= len(p.quick[0].lists) {
		t.Fatalf("rows from starts search %d lists, want %d of the %d", from.Lists, want, len(p.quick[0].lists))
	}
	if got := from.PerRow + n*s.Work().PerRow; got != all.PerRow {
		t.Fatalf("Σ k from starts %d + %d rows × %d in the start = %d, from all leaves %d", from.PerRow, n, s.Work().PerRow, got, all.PerRow)
	}
	if s.Work().Lists != len(s.rest[0]) || from.Shared+from.Own >= all.Shared+all.Own {
		t.Fatalf("start searched %d lists, want %d; masks from starts %d, from all leaves %d",
			s.Work().Lists, len(s.rest[0]), from.Shared+from.Own, all.Shared+all.Own)
	}
	t.Logf("masks a row: %.1f from starts (+ %d once for the start) against %.1f from all leaves",
		float64(from.Shared+from.Own)/n, s.Work().Own, float64(all.Shared+all.Own)/n)
}

// TestCheckpointLayout checks what seal records against the sorted nodes:
// list by list, one checkpoint at every multiple of qsCkStride short of the
// list's length, each listing in tree order every tree the nodes before it
// touch, with the AND of those nodes' masks.
func TestCheckpointLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, tc := range []struct{ trees, interior, feats int }{{3, 5, 1}, {40, 30, 3}, {300, 20, 6}} {
		m := &gbdt.Model{NumFeatures: tc.feats}
		for i := 0; i < tc.trees; i++ {
			m.Trees = append(m.Trees, wideTree(rng, 1+rng.Intn(tc.interior), tc.feats))
		}
		for bi, b := range Pack(m).quick {
			at, ck := 0, 0
			for li, l := range b.lists {
				if int(l.ck) != ck {
					t.Fatalf("%d trees, block %d list %d: first checkpoint %d, want %d", tc.trees, bi, li, l.ck, ck)
				}
				for c := 1; c*qsCkStride < int(l.end)-at; c++ {
					var and [qsBlockTrees]uint64
					for i := range and {
						and[i] = ^uint64(0)
					}
					for j := at; j < at+c*qsCkStride; j++ {
						and[b.tree[j]] &= b.mask[j]
					}
					lo, hi := b.ckOff[ck], b.ckOff[ck+1]
					var trees []uint8
					for tr, a := range and {
						if a != ^uint64(0) {
							trees = append(trees, uint8(tr))
						}
					}
					if !slices.Equal(b.ckTree[lo:hi], trees) {
						t.Fatalf("%d trees, block %d list %d checkpoint %d: trees %v, want %v", tc.trees, bi, li, c, b.ckTree[lo:hi], trees)
					}
					for i, tr := range trees {
						if b.ckMask[int(lo)+i] != and[tr] {
							t.Fatalf("%d trees, block %d list %d checkpoint %d, tree %d: mask %#x, want %#x", tc.trees, bi, li, c, tr, b.ckMask[int(lo)+i], and[tr])
						}
					}
					ck++
				}
				at = int(l.end)
			}
			if len(b.ckOff) != ck+1 {
				t.Fatalf("%d trees, block %d: %d checkpoint offsets, want %d", tc.trees, bi, len(b.ckOff), ck+1)
			}
		}
	}
}

// onFeature is wideTree with every node testing feature f.
func onFeature(rng *rand.Rand, interior int, f int32) gbdt.Tree {
	t := wideTree(rng, interior, 1)
	for i := range t.Nodes {
		t.Nodes[i].Feature = f
	}
	return t
}

// TestCheckpointListEnds covers a list whose length is a multiple of
// qsCkStride, failed to its end: there is no checkpoint at the end, and the
// index one past the list's last checkpoint is the next list's first (or past
// the array, for the last list). Feature 0's list has 31 to 97 nodes, feature
// 1's 40 and feature 2's 64; rows that are NaN or +Inf in a feature fail its
// whole list and -Inf rows none of it, at every batch length, alone and in
// blocks of every width.
func TestCheckpointListEnds(t *testing.T) {
	const stride = 3
	nan, inf := math.NaN(), math.Inf(1)
	for _, nodes := range []int{31, 32, 33, 63, 64, 65, 96, 97} {
		rng := rand.New(rand.NewSource(int64(nodes)))
		m := &gbdt.Model{BaseScore: 0.25, NumFeatures: stride}
		for left := nodes; left > 0; left -= min(left, 12) {
			m.Trees = append(m.Trees, onFeature(rng, min(left, 12), 0))
		}
		m.Trees = append(m.Trees, onFeature(rng, 20, 1), onFeature(rng, 20, 1), onFeature(rng, 32, 2), onFeature(rng, 32, 2))
		p := Pack(m)
		if l := p.quick[0].lists; len(l) != 3 || l[0].end != int32(nodes) || l[1].end-l[0].end != 40 || l[2].end-l[1].end != 64 {
			t.Fatalf("%d nodes on feature 0: lists %+v", nodes, l)
		}
		specials := []float64{nan, inf, -inf}
		var rows []float64
		for _, a := range specials {
			for _, b := range specials {
				for _, c := range specials {
					rows = append(rows, a, b, c)
				}
			}
		}
		for i := 0; i < 15*stride; i++ {
			rows = append(rows, rng.NormFloat64()*10)
		}
		total := len(rows) / stride
		for r := 0; r < total; r++ {
			v := rows[r*stride : (r+1)*stride]
			want, _ := loneRowMasks(p, v)
			if w := p.MaskCounts(v, stride, 1, nil); w.Own != want {
				t.Fatalf("%d nodes, row %v: %d masks, want %d", nodes, v, w.Own, want)
			}
		}
		for n := 1; n <= total; n++ {
			for lo := 0; lo+n <= total; lo += 5 {
				out := make([]float64, n)
				p.PredictRowsInto(rows[lo*stride:(lo+n)*stride], stride, out, nil)
				for i := range out {
					v := rows[(lo+i)*stride : (lo+i+1)*stride]
					if want := p.Predict(v); math.Float64bits(out[i]) != math.Float64bits(want) {
						t.Fatalf("%d nodes, %d rows from %d, row %v: PredictRowsInto %v != Predict %v", nodes, n, lo, v, out[i], want)
					}
				}
			}
		}
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
