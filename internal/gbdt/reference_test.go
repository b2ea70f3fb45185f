package gbdt

import (
	"math"
	"math/rand"
	"testing"
)

// The reference grower: the oracle the production grower is checked
// against. It shares the rng protocol (bagging permutation, then feature
// permutation), the split formula and the tie-breaks with grower.grow, and
// nothing else: every leaf's histograms are summed per feature, per bin,
// straight from bins[f][r] over the leaf's rows — no default bin, no
// non-default layout, no feature list, no subtraction, no arena. Under
// gradients whose sums are exact the two must grow the same tree bit for bit.

// refHist is one feature's brute-force histogram over a leaf's rows.
func refHist(td *trainData, rows []int32, f, nb int, grad, hess []float64) []histBin {
	hist := make([]histBin, nb)
	for _, r := range rows {
		b := &hist[td.bins[f][r]]
		b.g += grad[r]
		b.h += hess[r]
		b.c++
	}
	return hist
}

// refLeaf is a leaf of the reference grower with the best split it offers.
type refLeaf struct {
	rows       []int32
	sumG, sumH float64
	parent     int32
	isLeft     bool

	gain   float64
	feat   int
	bin    uint8
	lg, lh float64
}

type refGrower struct {
	td  *trainData
	bnr *binner
	p   Params
	rng *rand.Rand

	nodeBins []uint8 // split bin of every node of the last tree
}

func (gr *refGrower) findBestSplit(l *refLeaf, feats []int, grad, hess []float64) {
	l.gain = 0
	parentScore := l.sumG * l.sumG / (l.sumH + gr.p.Lambda)
	for _, f := range feats {
		nb := gr.bnr.numBins(f)
		hist := refHist(gr.td, l.rows, f, nb, grad, hess)
		var lg, lh float64
		lc := 0
		for b := 0; b < nb-1; b++ {
			lg += hist[b].g
			lh += hist[b].h
			lc += int(hist[b].c)
			rc := len(l.rows) - lc
			if lc < gr.p.MinDataInLeaf || rc < gr.p.MinDataInLeaf {
				continue
			}
			rg, rh := l.sumG-lg, l.sumH-lh
			gain := lg*lg/(lh+gr.p.Lambda) + rg*rg/(rh+gr.p.Lambda) - parentScore
			if gain > l.gain {
				l.gain, l.feat, l.bin, l.lg, l.lh = gain, f, uint8(b), lg, lh
			}
		}
	}
}

func (gr *refGrower) grow(grad, hess []float64) *Tree {
	td, p := gr.td, gr.p
	n := td.n
	rows := make([]int32, td.n)
	if p.BaggingFraction < 1 {
		n = max(int(float64(td.n)*p.BaggingFraction), 1)
		for i, r := range gr.rng.Perm(td.n) {
			rows[i] = int32(r)
		}
	} else {
		for i := range rows {
			rows[i] = int32(i)
		}
	}
	var feats []int
	if p.FeatureFraction < 1 {
		k := max(int(float64(td.f)*p.FeatureFraction), 1)
		feats = gr.rng.Perm(td.f)[:k]
	} else {
		for f := 0; f < td.f; f++ {
			feats = append(feats, f)
		}
	}

	root := refLeaf{rows: rows[:n], parent: -1}
	for _, r := range root.rows {
		root.sumG += grad[r]
		root.sumH += hess[r]
	}
	gr.findBestSplit(&root, feats, grad, hess)

	tree := &Tree{}
	gr.nodeBins = gr.nodeBins[:0]
	link := func(l *refLeaf, ref int32) {
		if l.parent < 0 {
			return
		}
		if l.isLeft {
			tree.Nodes[l.parent].Left = ref
		} else {
			tree.Nodes[l.parent].Right = ref
		}
	}
	leaves := []refLeaf{root}
	for len(leaves) < p.NumLeaves {
		best := -1
		for i := range leaves {
			if leaves[i].gain > 0 && (best < 0 || leaves[i].gain > leaves[best].gain) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		l := leaves[best]
		nodeIdx := int32(len(tree.Nodes))
		tree.Nodes = append(tree.Nodes, Node{Feature: int32(l.feat), Threshold: gr.bnr.threshold(l.feat, l.bin)})
		gr.nodeBins = append(gr.nodeBins, l.bin)
		link(&l, nodeIdx)

		left := refLeaf{sumG: l.lg, sumH: l.lh, parent: nodeIdx, isLeft: true}
		right := refLeaf{sumG: l.sumG - l.lg, sumH: l.sumH - l.lh, parent: nodeIdx}
		for _, r := range l.rows {
			if td.bins[l.feat][r] <= l.bin {
				left.rows = append(left.rows, r)
			} else {
				right.rows = append(right.rows, r)
			}
		}
		gr.findBestSplit(&left, feats, grad, hess)
		gr.findBestSplit(&right, feats, grad, hess)
		leaves[best] = left
		leaves = append(leaves, right)
	}
	for i := range leaves {
		l := &leaves[i]
		tree.Leaves = append(tree.Leaves, -l.sumG/(l.sumH+p.Lambda)*p.LearningRate)
		link(l, int32(^i))
	}
	return tree
}

// routeBinned walks tree for training row r on binned features and returns
// the leaf index it reaches.
func routeBinned(td *trainData, tree *Tree, nodeBins []uint8, r int32) int {
	if len(tree.Nodes) == 0 {
		return 0
	}
	i := int32(0)
	for i >= 0 {
		if n := &tree.Nodes[i]; td.bins[n.Feature][r] <= nodeBins[i] {
			i = n.Left
		} else {
			i = n.Right
		}
	}
	return int(^i)
}

// refTrain is Train's boosting loop around the reference grower, for the
// configurations the tests compare: no validation split, no early stopping.
func refTrain(t testing.TB, p Params, xs [][]float64, ys []float64) *Model {
	t.Helper()
	if p.ValidationFraction != 0 || p.EarlyStoppingRounds != 0 {
		t.Fatal("refTrain: validation split and early stopping are not mirrored")
	}
	bnr := newBinner(xs, len(xs[0]), p.MaxBins)
	td := newTrainData(bnr, xs, ys)
	gr := &refGrower{td: td, bnr: bnr, p: p, rng: rand.New(rand.NewSource(p.Seed))}
	m := &Model{NumFeatures: len(xs[0]), Params: p}
	for _, y := range ys {
		m.BaseScore += y
	}
	m.BaseScore /= float64(len(ys))
	preds := make([]float64, td.n)
	for i := range preds {
		preds[i] = m.BaseScore
	}
	g := make([]float64, td.n)
	h := make([]float64, td.n)
	for round := 0; round < p.NumRounds; round++ {
		gradients(p.Objective, preds, ys, g, h)
		tree := gr.grow(g, h)
		m.Trees = append(m.Trees, *tree)
		for r := range preds {
			preds[r] += tree.Leaves[routeBinned(td, tree, gr.nodeBins, int32(r))]
		}
	}
	m.BestIteration = len(m.Trees)
	return m
}

// dyadicGrads fills grad/hess with values of the form k/4 — exactly
// representable in float64, so every histogram sum, every parent − child
// subtraction and every totals − other-bins default is exact floating-point
// arithmetic. Under such gradients the production grower must reproduce the
// reference bit for bit.
func dyadicGrads(rng *rand.Rand, grad, hess []float64) {
	for i := range grad {
		grad[i] = float64(rng.Intn(65))/4 - 8 // k/4 in [-8, 8]
		hess[i] = float64(rng.Intn(8)+1) / 4  // k/4 in (0, 2]
	}
}

// requireTreesBitIdentical compares two trees down to the float bits of
// thresholds and leaf weights.
func requireTreesBitIdentical(t testing.TB, round int, a, b *Tree) {
	t.Helper()
	if len(a.Nodes) != len(b.Nodes) || len(a.Leaves) != len(b.Leaves) {
		t.Fatalf("round %d: shape differs: %d/%d nodes, %d/%d leaves",
			round, len(a.Nodes), len(b.Nodes), len(a.Leaves), len(b.Leaves))
	}
	for i := range a.Nodes {
		an, bn := a.Nodes[i], b.Nodes[i]
		if an.Feature != bn.Feature || an.Left != bn.Left || an.Right != bn.Right ||
			math.Float64bits(an.Threshold) != math.Float64bits(bn.Threshold) {
			t.Fatalf("round %d: node %d differs: %+v vs %+v", round, i, an, bn)
		}
	}
	for i := range a.Leaves {
		if math.Float64bits(a.Leaves[i]) != math.Float64bits(b.Leaves[i]) {
			t.Fatalf("round %d: leaf %d differs: %v vs %v", round, i, a.Leaves[i], b.Leaves[i])
		}
	}
}

// requirePartitionMatchesRouting checks what Train's score update relies on
// after a grow — candidate i's range of the partition holds exactly the in-bag
// rows the tree routes to leaf i, and the ranges tile the bag — and then the
// update.
func requirePartitionMatchesRouting(t testing.TB, round int, gr *grower, tree *Tree) {
	t.Helper()
	if len(gr.cands) != len(tree.Leaves) {
		t.Fatalf("round %d: %d candidates for %d leaves", round, len(gr.cands), len(tree.Leaves))
	}
	seen := make(map[int32]bool, gr.inBag)
	for li, c := range gr.cands {
		for _, r := range gr.idx[c.lo:c.hi] {
			if seen[r] {
				t.Fatalf("round %d: row %d sits in two leaf ranges", round, r)
			}
			seen[r] = true
			if got := routeBinned(gr.td, tree, gr.nodeBins, r); got != li {
				t.Fatalf("round %d: row %d is in leaf %d's range but routes to leaf %d", round, r, li, got)
			}
			if w := gr.predictBinned(tree, gr.td.bins, int(r)); math.Float64bits(w) != math.Float64bits(tree.Leaves[li]) {
				t.Fatalf("round %d: row %d: predictBinned %v, leaf %d weighs %v", round, r, w, li, tree.Leaves[li])
			}
		}
	}
	for _, r := range gr.idx[:gr.inBag] {
		if !seen[r] {
			t.Fatalf("round %d: in-bag row %d is in no leaf range", round, r)
		}
	}
	if len(seen) != gr.inBag {
		t.Fatalf("round %d: leaf ranges hold %d rows, bag has %d", round, len(seen), gr.inBag)
	}
	// The score update itself, out-of-bag rows included: from zero, every
	// row ends at the weight of the leaf the tree routes it to.
	scores := make([]float64, gr.td.n)
	gr.addScores(tree, scores)
	for r, s := range scores {
		if w := tree.Leaves[routeBinned(gr.td, tree, gr.nodeBins, int32(r))]; s != w {
			t.Fatalf("round %d: row %d scored %v, its leaf weighs %v", round, r, s, w)
		}
	}
}
