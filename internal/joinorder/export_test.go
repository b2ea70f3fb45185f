package joinorder

// PlannerPricing replays a join tree through cm as DPSize would build it: it
// returns the pipeline vectors the planner's encoder writes for the tree, in
// plan.Decompose's order, and the cost cm's Leaf, Join and Total give it.
func PlannerPricing(cm *T3CostModel, tree *Tree) (vecs [][]float64, cost float64) {
	var walk func(t *Tree) *t3State
	walk = func(t *Tree) *t3State {
		if t.Left == nil {
			return cm.Leaf(t.Rel)
		}
		bs, ps := t.Left.Rels(), t.Right.Rels()
		b := walk(t.Left)
		closed := make([]float64, len(b.openVec))
		cm.enc.closeBuildInto(closed, b.openVec, b.subtree, cm.enc.rels.keyWidths(bs, ps)[0])
		vecs = append(vecs, closed)
		return cm.Join(b, walk(t.Right), bs, ps)
	}
	root := walk(tree)
	aggScan := make([]float64, len(root.openVec))
	cm.enc.aggScanInto(aggScan, cm.oracle)
	return append(vecs, root.openVec, aggScan), cm.Total(root)
}

// WalkerPricing prices a join tree as cm does, but every pipeline on the
// walker (treec.Packed.Predict) over vectors the encoder writes afresh: the
// planner's cost through an evaluator other than its kernel. It adds the
// seconds in Join's and Total's order — closed = b.closed + p.closed + build
// per join, then closed + open + the aggregate's scan pipeline — so a planner
// that prices every row as the walker does matches it bit for bit.
func WalkerPricing(cm *T3CostModel, tree *Tree) float64 {
	enc := cm.enc
	price := func(vec []float64, src float64) float64 { return scaleSeconds(cm.pred.Predict(vec), src) }
	type priced struct {
		subtree
		open   []float64
		closed float64
	}
	var walk func(t *Tree) priced
	walk = func(t *Tree) priced {
		vec := make([]float64, enc.reg.NumFeatures())
		if t.Left == nil {
			return priced{subtree: enc.leafInto(vec, t.Rel), open: vec}
		}
		bs, ps := t.Left.Rels(), t.Right.Rels()
		b, p := walk(t.Left), walk(t.Right)
		keyW := enc.rels.keyWidths(bs, ps)[0]
		enc.closeBuildInto(vec, b.open, b.subtree, keyW)
		closed := b.closed + p.closed + price(vec, b.src)
		set := bs | ps
		st := enc.extendProbeInto(vec, p.open, b.subtree, p.subtree, set, cm.oracle.Card(set), keyW)
		return priced{subtree: st, open: vec, closed: closed}
	}
	root := walk(tree)
	agg := make([]float64, enc.reg.NumFeatures())
	src := enc.aggScanInto(agg, cm.oracle)
	return root.closed + price(root.open, root.src) + price(agg, src)
}

// PricedRows replays a join tree through cm and returns the rows
// DPSizeBatched prices for it — per join, its build side's close row and its
// extended probe row — each with the leaf vector of the relation whose scan
// starts the row's pipeline: the vector whose kernel start the row begins from.
func PricedRows(cm *T3CostModel, tree *Tree) (rows, leaves [][]float64) {
	var walk func(t *Tree) *t3State
	walk = func(t *Tree) *t3State {
		if t.Left == nil {
			return cm.Leaf(t.Rel)
		}
		bs, ps := t.Left.Rels(), t.Right.Rels()
		b, p := walk(t.Left), walk(t.Right)
		closed := make([]float64, len(b.openVec))
		cm.enc.closeBuildInto(closed, b.openVec, b.subtree, cm.enc.rels.keyWidths(bs, ps)[0])
		j := cm.Join(b, p, bs, ps)
		rows = append(rows, closed, j.openVec)
		leaves = append(leaves, cm.Leaf(b.scan).openVec, cm.Leaf(j.scan).openVec)
		return j
	}
	walk(tree)
	return rows, leaves
}

// Test helpers the external tests share.
var (
	PlannerModel   = plannerModel
	MixedWidthSpec = mixedWidthSpec
	StartFeatures  = startFeatures
)
