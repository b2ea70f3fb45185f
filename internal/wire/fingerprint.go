// Plan fingerprinting: the cache key contract of the serving tier.
//
// A prediction is a pure function of (plan structure, cardinality
// annotations, card mode), so the prediction cache keys on exactly that,
// split in two halves the same way workload.LabelSet splits StableBytes
// from measured durations:
//
//   - Key.Struct hashes the plan's shape: operators, child positions,
//     column type lists, predicate classes, and hash-join build widths.
//   - Key.Cards hashes everything the featurizer reads per card mode: the
//     mode itself, every node's output cardinality, scan cardinalities,
//     and per-predicate selectivities.
//
// Two plans with the same shape but different annotations share Struct and
// differ in Cards; the same plan asked under true vs estimated
// cardinalities differs in Cards. Hashing is FNV-1a (the same scheme as
// workload.LabelSet.Fingerprint) over the node walk directly — no
// serialization buffer, no allocation.
package wire

import (
	"math"

	"t3/internal/engine/plan"
)

// Key identifies a (plan, annotations, mode) triple for prediction caching.
type Key struct {
	// Struct is the structural plan fingerprint.
	Struct uint64
	// Cards is the cardinality-annotation hash, card mode folded in.
	Cards uint64
}

// FNV-1a parameters (shared with workload.LabelSet.Fingerprint).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func fnv64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v))
		v >>= 8
	}
	return h
}

// PlanKey fingerprints a featurizable plan for prediction caching.
func PlanKey(root *plan.Node, mode plan.CardMode) Key {
	k := Key{Struct: fnvOffset, Cards: fnvByte(fnvOffset, byte(mode))}
	hashNode(&k, root, mode)
	return k
}

// hashNode folds one node and its subtree into the key, pre-order. Child
// presence bytes delimit subtrees, so distinct shapes cannot collapse onto
// the same byte stream.
func hashNode(k *Key, n *plan.Node, mode plan.CardMode) {
	if n == nil {
		return
	}
	h := fnvByte(k.Struct, byte(n.Op))
	childMask := byte(0)
	if n.Left != nil {
		childMask |= 1
	}
	if n.Right != nil {
		childMask |= 2
	}
	h = fnvByte(h, childMask)
	h = fnv64(h, uint64(len(n.Schema)))
	for _, c := range n.Schema {
		h = fnvByte(h, byte(c.Kind))
	}
	c := fnv64(k.Cards, math.Float64bits(n.OutCard.Get(mode)))
	switch n.Op {
	case plan.TableScanOp:
		c = fnv64(c, math.Float64bits(n.ScanCard))
		h = fnv64(h, uint64(len(n.Predicates)))
		for i, p := range n.Predicates {
			h = fnvByte(h, byte(p.Class()))
			c = fnv64(c, math.Float64bits(n.PredSel[i].Get(mode)))
		}
	case plan.HashJoinOp:
		h = fnv64(h, uint64(n.HashTupleWidth()))
	}
	k.Struct, k.Cards = h, c
	hashNode(k, n.Left, mode)
	hashNode(k, n.Right, mode)
}
