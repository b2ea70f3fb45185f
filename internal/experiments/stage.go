package experiments

import (
	"fmt"
	"hash/fnv"

	"t3/internal/engine/plan"
)

// A hierarchical query-time predictor modeled on Amazon Redshift's Stage
// (Wu et al., 2024), which the paper uses as its latency comparison point
// (Tables 1 and 2): an exact-plan cache answers repeated queries in
// nanoseconds, a local decision-tree model covers simple queries in
// microseconds, and a neural network handles the rest at high latency. T3's
// argument is that a single compiled-tree model makes this hierarchy
// unnecessary.

// stageMaxDTPipelines is the escalation policy: plans with more pipelines
// are considered complex and routed to the NN tier.
const stageMaxDTPipelines = 4

// stageSource identifies which tier produced a prediction.
type stageSource uint8

// Prediction sources.
const (
	// fromCache means the exact plan was seen before.
	fromCache stageSource = iota
	// fromDT means the decision-tree tier answered.
	fromDT
	// fromNN means the neural-network tier answered.
	fromNN
)

// String names the source.
func (s stageSource) String() string {
	switch s {
	case fromCache:
		return "cache"
	case fromDT:
		return "dt"
	default:
		return "nn"
	}
}

// stagePredictor is the cache → DT → NN hierarchy.
type stagePredictor struct {
	cache map[uint64]float64
	dt    *perQueryModel
	nn    *zeroShotModel
}

// newStage builds a hierarchy from its tiers.
func newStage(dt *perQueryModel, nn *zeroShotModel) *stagePredictor {
	return &stagePredictor{cache: make(map[uint64]float64), dt: dt, nn: nn}
}

// predict returns the predicted execution time in seconds and the tier
// that produced it.
func (p *stagePredictor) predict(root *plan.Node, mode plan.CardMode) (float64, stageSource) {
	h := planHash(root, mode)
	if v, ok := p.cache[h]; ok {
		return v, fromCache
	}
	if len(plan.Decompose(root)) <= stageMaxDTPipelines {
		return p.dt.predictSeconds(root, mode), fromDT
	}
	return p.nn.predictSeconds(root, mode), fromNN
}

// observe records an executed query's measured time, as Redshift's history
// cache does, so repeated submissions hit the cache tier.
func (p *stagePredictor) observe(root *plan.Node, mode plan.CardMode, seconds float64) {
	p.cache[planHash(root, mode)] = seconds
}

// planHash computes a structural hash of an annotated plan: operator types,
// table names, predicate texts, and cardinalities.
func planHash(root *plan.Node, mode plan.CardMode) uint64 {
	h := fnv.New64a()
	root.Walk(func(n *plan.Node) {
		fmt.Fprintf(h, "%d|%s|%.0f|", n.Op, n.TableName, n.OutCard.Get(mode))
		for _, pr := range n.Predicates {
			h.Write([]byte(pr.String()))
			h.Write([]byte{';'})
		}
		if n.FilterPred != nil {
			h.Write([]byte(n.FilterPred.String()))
		}
	})
	return h.Sum64()
}
