package gbdt

import "math/rand"

// leafCand is a tree leaf that may still be split.
type leafCand struct {
	lo, hi     int // row range in the grower's index partition
	sumG, sumH float64
	parent     int32 // index of the parent internal node, -1 for the root
	isLeft     bool
	// hist holds the candidate's feature histograms; nil when the candidate
	// is too small to split (histograms are never built for it).
	hist *histSet

	bestGain float64
	bestFeat int
	bestBin  uint8
	bestLG   float64 // left-side gradient sums of the best split
	bestLH   float64
}

// histBin is one histogram bin: gradient sum, hessian sum and row count.
type histBin struct {
	g, h float64
	c    int32
}

// histSet is one leaf candidate's per-feature histograms, one entry per bin
// addressed by trainData's featOff layout — without the default bins. A
// feature's default bin is never written: scanHist derives it as the leaf's
// totals minus the feature's other bins. Keeping whole sets alive per
// candidate is what enables histogram subtraction: a split's larger child
// derives its set as parent − smaller child instead of rescanning its rows.
type histSet struct {
	bins []histBin
	// nd[f] counts the leaf's rows outside feature f's default bin, and
	// feats lists the features with a bin written since the set was drawn:
	// for a built set exactly those with nd > 0, for the larger child of a
	// split — it inherits its parent's list — a superset of them.
	feats []int32
	nd    []int32
}

// grower grows one tree per boosting round, reusing its buffers.
type grower struct {
	td  *trainData
	bnr *binner
	p   Params
	rng *rand.Rand

	idx  []int32 // row partition
	tmp  []int32 // partition scratch
	feat []int   // features considered for the current tree

	// cands are the leaf candidates of the tree being grown; when grow
	// returns, cands[i] is leaf i of the tree and idx[lo:hi] the in-bag rows
	// it receives.
	cands []leafCand
	inBag int // idx[:inBag] was grown on; idx[inBag:] is out of bag

	// sets is the histSet arena, reset (cursor only, buffers kept) at the
	// start of every grow. Each split retires the parent's set to one child
	// and draws at most one fresh set for the other, so the arena never
	// holds more than NumLeaves sets.
	sets  []*histSet
	nsets int

	// rowsScanned and cellUpdates count the rows histogram builds visited
	// and the cells they wrote, over the grower's lifetime.
	rowsScanned, cellUpdates int64

	// nodeBins mirrors tree.Nodes with the split bin, letting training
	// predict on binned rows without keeping raw feature values.
	nodeBins []uint8
}

func newGrower(td *trainData, bnr *binner, p Params, rng *rand.Rand) *grower {
	g := &grower{td: td, bnr: bnr, p: p, rng: rng}
	g.idx = make([]int32, td.n)
	g.tmp = make([]int32, td.n)
	g.cands = make([]leafCand, 0, p.NumLeaves)
	return g
}

// newHistSet draws the next set from the arena, allocating buffers only the
// first time each slot is used across the grower's lifetime. A recycled set
// is zero outside the features it lists, so only those ranges are cleared.
func (gr *grower) newHistSet() *histSet {
	if gr.nsets == len(gr.sets) {
		gr.sets = append(gr.sets, &histSet{
			bins: make([]histBin, len(gr.td.binFeat)),
			nd:   make([]int32, gr.td.f),
		})
	}
	hs := gr.sets[gr.nsets]
	gr.nsets++
	for _, f := range hs.feats {
		clear(hs.bins[gr.td.featOff[f]:gr.td.featOff[f+1]])
		hs.nd[f] = 0
	}
	hs.feats = hs.feats[:0]
	return hs
}

// grow fits one tree to the gradient pair (grad, hess).
func (gr *grower) grow(grad, hess []float64) *Tree {
	p := gr.p
	td := gr.td
	gr.nsets = 0 // recycle the histogram arena from the previous tree

	// Row bagging: the first n rows of a permutation are grown on, the rest
	// stay behind them in idx for out-of-bag scoring.
	n := td.n
	if p.BaggingFraction < 1 {
		n = int(float64(td.n) * p.BaggingFraction)
		if n < 1 {
			n = 1
		}
		for i, r := range gr.rng.Perm(td.n) {
			gr.idx[i] = int32(r)
		}
	} else {
		for i := 0; i < td.n; i++ {
			gr.idx[i] = int32(i)
		}
	}
	gr.inBag = n

	// Feature sampling.
	gr.feat = gr.feat[:0]
	if p.FeatureFraction < 1 {
		k := int(float64(td.f) * p.FeatureFraction)
		if k < 1 {
			k = 1
		}
		perm := gr.rng.Perm(td.f)
		for _, f := range perm[:k] {
			gr.feat = append(gr.feat, f)
		}
	} else {
		for f := 0; f < td.f; f++ {
			gr.feat = append(gr.feat, f)
		}
	}

	tree := &Tree{}
	gr.nodeBins = gr.nodeBins[:0]
	minSplit := 2 * p.MinDataInLeaf

	root := leafCand{lo: 0, hi: n, parent: -1}
	for _, r := range gr.idx[:n] {
		root.sumG += grad[r]
		root.sumH += hess[r]
	}
	// The root is always built by a row scan; subtraction needs a parent.
	if n >= minSplit {
		root.hist = gr.newHistSet()
		gr.buildHist(&root, grad, hess)
	}
	gr.findBestSplit(&root)

	cands := append(gr.cands[:0], root)
	for len(cands) < p.NumLeaves {
		// Pick the candidate with the highest gain (leaf-wise growth).
		best := -1
		for i := range cands {
			if cands[i].bestGain > 0 && (best < 0 || cands[i].bestGain > cands[best].bestGain) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		c := cands[best]

		// Materialize the internal node.
		nodeIdx := int32(len(tree.Nodes))
		tree.Nodes = append(tree.Nodes, Node{
			Feature:   int32(c.bestFeat),
			Threshold: gr.bnr.threshold(c.bestFeat, c.bestBin),
		})
		gr.nodeBins = append(gr.nodeBins, c.bestBin)
		gr.patchParent(tree, &c, nodeIdx)

		// Partition rows: bin <= bestBin goes left (stable).
		mid := gr.partition(c.lo, c.hi, c.bestFeat, c.bestBin)

		left := leafCand{lo: c.lo, hi: mid, sumG: c.bestLG, sumH: c.bestLH, parent: nodeIdx, isLeft: true}
		right := leafCand{lo: mid, hi: c.hi, sumG: c.sumG - c.bestLG, sumH: c.sumH - c.bestLH, parent: nodeIdx}

		small, large := &left, &right
		if right.hi-right.lo < left.hi-left.lo {
			small, large = &right, &left
		}
		if large.hi-large.lo >= minSplit {
			// Histogram subtraction: scan only the smaller child's rows,
			// then derive the larger child's histograms in place as
			// parent − smaller, reusing the parent's buffers and its
			// feature list.
			small.hist = gr.newHistSet()
			gr.buildHist(small, grad, hess)
			subtractHist(td, c.hist, small.hist)
			large.hist = c.hist
			if small.hi-small.lo < minSplit {
				// Too small to ever split; its histogram only fed the
				// subtraction, and its set is the arena's last draw.
				small.hist = nil
				gr.nsets--
			}
		}

		gr.findBestSplit(&left)
		gr.findBestSplit(&right)

		cands[best] = left
		cands = append(cands, right)
	}
	gr.cands = cands

	// Remaining candidates become leaves.
	for i := range cands {
		c := &cands[i]
		leafIdx := int32(len(tree.Leaves))
		w := -c.sumG / (c.sumH + gr.p.Lambda) * gr.p.LearningRate
		tree.Leaves = append(tree.Leaves, w)
		if c.parent < 0 {
			// Single-leaf tree.
			continue
		}
		ref := int32(^leafIdx)
		if c.isLeft {
			tree.Nodes[c.parent].Left = ref
		} else {
			tree.Nodes[c.parent].Right = ref
		}
	}
	return tree
}

// patchParent wires the freshly created internal node into its parent.
func (gr *grower) patchParent(tree *Tree, c *leafCand, nodeIdx int32) {
	if c.parent < 0 {
		return
	}
	if c.isLeft {
		tree.Nodes[c.parent].Left = nodeIdx
	} else {
		tree.Nodes[c.parent].Right = nodeIdx
	}
}

// partition stably reorders idx[lo:hi] so rows with bin ≤ b come first and
// returns the boundary.
func (gr *grower) partition(lo, hi, f int, b uint8) int {
	bins := gr.td.bins[f]
	w := lo
	t := 0
	for i := lo; i < hi; i++ {
		r := gr.idx[i]
		if bins[r] <= b {
			gr.idx[w] = r
			w++
		} else {
			gr.tmp[t] = r
			t++
		}
	}
	copy(gr.idx[w:hi], gr.tmp[:t])
	return w
}

// buildHist fills the candidate's (freshly drawn) set from the non-default
// cells of its rows, in partition order.
func (gr *grower) buildHist(c *leafCand, grad, hess []float64) {
	gr.rowsScanned += int64(c.hi - c.lo)
	gr.cellUpdates += gr.td.accumulate(c.hist, gr.idx[c.lo:c.hi], grad, hess)
}

// accumulate adds the non-default cells of the given rows to hs and returns
// how many cells that was.
func (td *trainData) accumulate(hs *histSet, rows []int32, grad, hess []float64) int64 {
	cells := int64(0)
	for _, r := range rows {
		g, h := grad[r], hess[r]
		row := td.cells[td.cellOff[r]:td.cellOff[r+1]]
		cells += int64(len(row))
		for _, i := range row {
			f := td.binFeat[i]
			if hs.nd[f] == 0 {
				hs.feats = append(hs.feats, f)
			}
			hs.nd[f]++
			b := &hs.bins[i]
			b.g += g
			b.h += h
			b.c++
		}
	}
	return cells
}

// subtractHist turns parent's histograms into the sibling's in place:
// parent −= small over the features small has written. On every other
// feature small's rows all sit in the default bin, which no set holds, so
// the parent's bins already are the sibling's.
func subtractHist(td *trainData, parent, small *histSet) {
	for _, f := range small.feats {
		parent.nd[f] -= small.nd[f]
		for i := td.featOff[f]; i < td.featOff[f+1]; i++ {
			parent.bins[i].g -= small.bins[i].g
			parent.bins[i].h -= small.bins[i].h
			parent.bins[i].c -= small.bins[i].c
		}
	}
}

// findBestSplit fills the candidate's best split fields from its
// histograms, scanning the sampled features in order so that the earliest
// feature wins a tie. A feature with fewer than MinDataInLeaf of the leaf's
// rows off its default bin is skipped — one the set does not list has none:
// the default bin falls on one side of any split, so the other side would be
// too small. A candidate without histograms (too small to split) keeps
// gain 0.
func (gr *grower) findBestSplit(c *leafCand) {
	c.bestGain = 0
	if c.hist == nil {
		return
	}
	parentScore := c.sumG * c.sumG / (c.sumH + gr.p.Lambda)
	for _, f := range gr.feat {
		if int(c.hist.nd[f]) >= gr.p.MinDataInLeaf {
			gr.scanHist(f, c, parentScore)
		}
	}
}

// scanHist walks feature f's histogram in the candidate's set and raises the
// candidate's best split to the best one the feature offers, if it gains
// more. The default bin is the leaf's totals minus the feature's stored
// bins, taken at its position in the prefix scan.
func (gr *grower) scanHist(f int, c *leafCand, parentScore float64) {
	td := gr.td
	hist := c.hist.bins[td.featOff[f]:td.featOff[f+1]]
	count := c.hi - c.lo
	// Two partial sums each, so that consecutive bins do not wait on one
	// another's additions.
	var g0, g1, h0, h1 float64
	i := 0
	for ; i+1 < len(hist); i += 2 {
		g0 += hist[i].g
		h0 += hist[i].h
		g1 += hist[i+1].g
		h1 += hist[i+1].h
	}
	if i < len(hist) {
		g0 += hist[i].g
		h0 += hist[i].h
	}
	def := histBin{g: c.sumG - (g0 + g1), h: c.sumH - (h0 + h1), c: int32(count) - c.hist.nd[f]}
	defBin := int(td.defBin[f])
	lambda := gr.p.Lambda
	var lg, lh float64
	var lc int
	// Split on "bin ≤ b" for b in [0, nb-2].
	for b := 0; b < len(hist)-1; b++ {
		hb := &hist[b]
		if b == defBin {
			hb = &def
		}
		lg += hb.g
		lh += hb.h
		lc += int(hb.c)
		if lc < gr.p.MinDataInLeaf {
			continue
		}
		rc := count - lc
		if rc < gr.p.MinDataInLeaf {
			break
		}
		rg := c.sumG - lg
		rh := c.sumH - lh
		gain := lg*lg/(lh+lambda) + rg*rg/(rh+lambda) - parentScore
		if gain > c.bestGain {
			c.bestGain = gain
			c.bestFeat = f
			c.bestBin = uint8(b)
			c.bestLG, c.bestLH = lg, lh
		}
	}
}

// addScores adds the freshly grown tree's output to preds: every in-bag row
// is in the partition range of the leaf it fell into, so a leaf's weight is
// added over its range; only out-of-bag rows walk the tree.
func (gr *grower) addScores(tree *Tree, preds []float64) {
	for i := range gr.cands {
		w := tree.Leaves[i]
		for _, r := range gr.idx[gr.cands[i].lo:gr.cands[i].hi] {
			preds[r] += w
		}
	}
	for _, r := range gr.idx[gr.inBag:] {
		preds[r] += gr.predictBinned(tree, gr.td.bins, int(r))
	}
}

// predictBinned evaluates the freshly grown tree for row r of the
// feature-major binned columns bins (valid until the next grow call): each
// split compares the row's bin with the split bin, which is the float64 bin
// edge the tree trained on, not the float32 threshold it stores.
func (gr *grower) predictBinned(tree *Tree, bins [][]uint8, r int) float64 {
	if len(tree.Nodes) == 0 {
		return tree.Leaves[0]
	}
	i := int32(0)
	for {
		n := &tree.Nodes[i]
		if bins[n.Feature][r] <= gr.nodeBins[i] {
			i = n.Left
		} else {
			i = n.Right
		}
		if i < 0 {
			return tree.Leaves[^i]
		}
	}
}
