package treec

import (
	"cmp"
	"math/bits"
	"slices"

	"t3/internal/gbdt"
)

// The batch kernel is QuickScorer (Lucchese et al., SIGIR 2015): instead of
// walking each tree from its root, every tree starts with a bitvector of
// candidate exit leaves, all set, and the kernel visits only the decision
// nodes whose test is false for the row — each of those rules out the leaves
// of its left subtree, one AND. What survives leftmost is the exit leaf.
// False nodes are found without touching the true ones: per feature, the
// nodes are sorted by ascending threshold, so they are a prefix of the list.
//
// Trees are grouped into blocks of at most qsBlockTrees so one block's
// bitvectors, a fixed array in the kernel's frame, stay in L1 and a tree id
// fits a byte.
const (
	qsBlockTrees = 256
	qsMaxLeaves  = 64
)

// qsNode is one decision node in a feature's scan list.
type qsNode struct {
	mask uint64  // clears the leaves of the node's left subtree
	thr  float32 // the PackedNode threshold, compared the same way
	feat uint16
	tree uint8 // tree within the block
}

// qsBlock holds up to qsBlockTrees consecutive multi-node trees: their nodes
// as one scan list per feature some node tests, list i being
// nodes[listEnd[i-1]:listEnd[i]], and their leaves per tree in left-to-right
// order of reference, which is the bit order of the masks.
type qsBlock struct {
	nodes   []qsNode
	listEnd []int32
	leafOff []int32 // per tree, start of its leaves
	leaves  []float64
}

// qsAdd appends a multi-node tree of at most qsMaxLeaves leaves to the last
// block, opening a new one when that is full. Nodes are left in the order
// met; seal sorts them.
func qsAdd(blocks []qsBlock, t *gbdt.Tree) []qsBlock {
	if n := len(blocks); n == 0 || len(blocks[n-1].leafOff) == qsBlockTrees {
		blocks = append(blocks, qsBlock{})
	}
	b := &blocks[len(blocks)-1]
	tree := uint8(len(b.leafOff))
	first := len(b.leaves)
	b.leafOff = append(b.leafOff, int32(first))
	// number lays out the leaves under child c from left to right; a node's
	// left subtree is then the bit range [lo, mid) of its tree.
	var number func(c int32)
	number = func(c int32) {
		if c < 0 {
			b.leaves = append(b.leaves, t.Leaves[^c])
			return
		}
		n := &t.Nodes[c]
		at := len(b.nodes)
		b.nodes = append(b.nodes, qsNode{thr: RoundThreshold32(n.Threshold), feat: uint16(n.Feature), tree: tree})
		lo := len(b.leaves) - first
		number(n.Left)
		mid := len(b.leaves) - first
		number(n.Right)
		b.nodes[at].mask = ^((uint64(1)<<(mid-lo) - 1) << lo)
	}
	number(0)
	return blocks
}

// seal sorts the block's nodes into its scan lists: by feature, then
// ascending threshold, ties staying in the order the trees were added, so the
// layout is deterministic. cmp.Compare orders floats the way the scan needs:
// ±0 tie, and NaN — false for every row, since the walker's v <= NaN never
// holds — sorts before all others, where every scan passes it.
func (b *qsBlock) seal() {
	slices.SortStableFunc(b.nodes, func(x, y qsNode) int {
		return cmp.Or(cmp.Compare(x.feat, y.feat), cmp.Compare(x.thr, y.thr))
	})
	for i := 1; i < len(b.nodes); i++ {
		if b.nodes[i].feat != b.nodes[i-1].feat {
			b.listEnd = append(b.listEnd, int32(i))
		}
	}
	b.listEnd = append(b.listEnd, int32(len(b.nodes)))
}

// scoreRows is the kernel behind PredictRowsInto. The scan stops on the
// walker's own predicate, not its complement, so a NaN feature value is
// false at every node and goes right everywhere, as in Predict; leaves are
// added to Base in tree order, so every sum is bit-identical to Predict's.
func (p *Packed) scoreRows(rows []float64, stride int, out []float64) {
	var bv [qsBlockTrees]uint64
	for r := range out {
		v := rows[r*stride : r*stride+p.NumFeatures]
		s := p.Base
		for bi := range p.quick {
			b := &p.quick[bi]
			live := bv[:len(b.leafOff)]
			for t := range live {
				live[t] = ^uint64(0)
			}
			at := int32(0)
			for _, end := range b.listEnd {
				list := b.nodes[at:end]
				x := v[list[0].feat]
				for _, n := range list {
					if x <= float64(n.thr) {
						break
					}
					bv[n.tree] &= n.mask
				}
				at = end
			}
			for t, off := range b.leafOff {
				s += b.leaves[int(off)+bits.TrailingZeros64(live[t])]
			}
		}
		out[r] = s
	}
}
