package joinorder

// PlannerPricing replays a join tree through cm as DPSize would build it: it
// returns the pipeline vectors the planner's encoder writes for the tree, in
// plan.Decompose's order, and the cost cm's Leaf, Join and Total give it.
func PlannerPricing(cm *T3CostModel, tree *Tree) (vecs [][]float64, cost float64) {
	var walk func(t *Tree) State
	walk = func(t *Tree) State {
		if t.Left == nil {
			return cm.Leaf(t.Rel)
		}
		bs, ps := t.Left.Rels(), t.Right.Rels()
		b := walk(t.Left).(*t3State)
		closed := make([]float64, len(b.openVec))
		cm.enc.closeBuildInto(closed, b.openVec, b.subtree, cm.enc.rels.keyWidths(bs, ps)[0])
		vecs = append(vecs, closed)
		return cm.Join(b, walk(t.Right), bs, ps)
	}
	root := walk(tree).(*t3State)
	aggScan := make([]float64, len(root.openVec))
	cm.enc.aggScanInto(aggScan, cm.oracle)
	return append(vecs, root.openVec, aggScan), cm.Total(root)
}

// Test helpers the external tests share.
var (
	PlannerModel   = plannerModel
	MixedWidthSpec = mixedWidthSpec
)
