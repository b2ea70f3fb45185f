package treec

import (
	"math"
	"math/bits"
	"slices"

	"t3/internal/gbdt"
)

// The batch kernel is QuickScorer (Lucchese et al., SIGIR 2015) in its
// block-wise form: instead of walking each tree from its root, every tree
// starts with a bitvector of candidate exit leaves, all set, and the kernel
// visits only the decision nodes whose test is false for the row — each of
// those rules out the leaves of its left subtree, one AND. What survives
// leftmost is the exit leaf. False nodes are found without touching the true
// ones: per feature, the nodes are sorted by ascending threshold, so they are
// a prefix of the list, and a binary search gives its length k.
//
// A prefix is not paid node by node. Every qsCkStride-th position of a list
// holds a checkpoint: for each tree the nodes before it touch, the AND of that
// tree's masks among them. A prefix of k nodes is the checkpoint below k plus
// the at most qsCkStride-1 nodes past it — one AND per tree the prefix rules
// on, not one per node, where a tree has many nodes on one feature.
//
// Rows are taken qsRows at a time. The nodes all of them fail, the first
// min k of each list, are applied once to one shared bitvector per tree; row
// r's own bitvector gets nodes [min k, k_r), or its whole prefix through the
// checkpoints when that is fewer ANDs — the shared part applied twice changes
// nothing, AND being idempotent. Neighbouring rows of a batch — the
// candidates of one enumeration wave, the pipelines of one plan — fail nearly
// the same prefixes, so most masks are applied once per block rather than
// once per row. A batch's last four to seven rows are one block of as many
// lanes; its last one to three go through the one-row kernel, which for so
// few is faster than a block's eight-lane set-up and read-out.
//
// A row need not start from all leaves. Rows that equal a base vector on every
// feature outside a set can start from the base's start (Starts): the
// bitvectors its nodes on those features leave. They then search the set's
// lists only. PredictRowsInto is the case of one all-ones start and every
// list.
//
// Trees are grouped into blocks of at most qsBlockTrees so one block's
// bitvectors, fixed arrays in the kernel's frame, stay in L1 and a tree id
// fits a byte.
const (
	qsBlockTrees = 256
	qsMaxLeaves  = 64
	qsRows       = 8
	qsMinBlock   = 4
	qsCkStride   = 32
)

// qsList is one feature's scan list: nodes [begin, end) of the block's
// arrays, end being the next list's begin. first repeats the list's first
// threshold, so a row that passes the whole list — a zero feature, mostly — is
// told by one compare against this small array, the node arrays untouched. ck
// is the index in ckOff of the list's first checkpoint: a block has at most
// qsBlockTrees*(qsMaxLeaves-1)/qsCkStride of them, so it fits 16 bits, and a
// list 16 bytes.
type qsList struct {
	first float32
	feat  uint16
	ck    uint16
	begin int32
	end   int32
}

// A block's checkpoint count fits qsList.ck; the conversion fails to compile
// otherwise.
const _ = uint16(qsBlockTrees * (qsMaxLeaves - 1) / qsCkStride)

// qsBlock holds up to qsBlockTrees consecutive multi-node trees: their
// decision nodes as parallel arrays (13 bytes a node) cut into one scan list
// per feature some node tests, the lists' checkpoints (9 bytes an entry), and
// the trees' leaves per tree in left-to-right order of reference, which is
// the bit order of the masks.
type qsBlock struct {
	thr   []float32 // the PackedNode threshold, compared the same way
	tree  []uint8   // tree within the block
	mask  []uint64  // clears the leaves of the node's left subtree
	lists []qsList

	// Checkpoint j is entries [ckOff[j], ckOff[j+1]) of ckTree and ckMask, in
	// tree order: each tree its list's nodes before the checkpoint touch, and
	// the AND of their masks.
	ckOff  []int32
	ckTree []uint8
	ckMask []uint64

	leafOff []int32 // per tree, start of its leaves
	leaves  []float64

	feat []uint16 // per node while the block is built; seal turns it into lists
}

// qsAdd appends trees[0], a multi-node tree of at most qsMaxLeaves leaves,
// to the last block, opening a new one when that is full; the trees after it
// are those the next calls add, so that a new block is made with room for
// the nodes and leaves of all it will hold. Nodes are left in the order met;
// seal sorts them.
func qsAdd(blocks []qsBlock, trees []gbdt.Tree) []qsBlock {
	if k := len(blocks); k == 0 || len(blocks[k-1].leafOff) == qsBlockTrees {
		held, nodes, leaves := 0, 0, 0
		for i := 0; i < len(trees) && held < qsBlockTrees; i++ {
			if n := len(trees[i].Nodes); n > 0 {
				held, nodes, leaves = held+1, nodes+n, leaves+len(trees[i].Leaves)
			}
		}
		blocks = append(blocks, qsBlock{
			thr: make([]float32, 0, nodes), tree: make([]uint8, 0, nodes), mask: make([]uint64, 0, nodes),
			feat: make([]uint16, 0, nodes), leafOff: make([]int32, 0, held), leaves: make([]float64, 0, leaves),
		})
	}
	t := &trees[0]
	b := &blocks[len(blocks)-1]
	b.leafOff = append(b.leafOff, int32(len(b.leaves)))
	b.number(t, 0)
	return blocks
}

// number lays out the leaves under child c of t, the block's last tree, from
// left to right; a node's left subtree is then the bit range [lo, mid) of its
// tree.
func (b *qsBlock) number(t *gbdt.Tree, c int32) {
	if c < 0 {
		b.leaves = append(b.leaves, t.Leaves[^c])
		return
	}
	n := &t.Nodes[c]
	at, first := len(b.mask), int(b.leafOff[len(b.leafOff)-1])
	b.thr = append(b.thr, float32(n.Threshold))
	b.feat = append(b.feat, uint16(n.Feature))
	b.tree = append(b.tree, uint8(len(b.leafOff)-1))
	b.mask = append(b.mask, 0)
	lo := len(b.leaves) - first
	b.number(t, n.Left)
	mid := len(b.leaves) - first
	b.number(t, n.Right)
	b.mask[at] = ^((uint64(1)<<(mid-lo) - 1) << lo)
}

// seal sorts the block's nodes into its scan lists: by feature, then
// ascending threshold, ties staying in the order the trees were added, so the
// layout is deterministic. The order is cmp.Compare's on floats, which is the
// one the search needs: ±0 tie, and NaN — false for every row, since the
// walker's v <= NaN never holds — sorts before all others, where every false
// prefix covers it. A counting pass buckets the nodes by feature; each bucket
// is then sorted as integers, thrKey above the node index, so the sort needs
// no comparison closure and ties keep node order. Then seal records every
// list's checkpoints.
func (b *qsBlock) seal() {
	var nfeat int
	for _, f := range b.feat {
		nfeat = max(nfeat, int(f)+1)
	}
	end := make([]int32, nfeat) // per feature, the end of its bucket in keys
	for _, f := range b.feat {
		end[f]++
	}
	for f := 1; f < nfeat; f++ {
		end[f] += end[f-1]
	}
	keys := make([]uint64, len(b.feat))
	for i := len(b.feat) - 1; i >= 0; i-- {
		f := b.feat[i]
		end[f]--
		keys[end[f]] = uint64(thrKey(b.thr[i]))<<32 | uint64(i)
	}
	// end[f] is now the start of bucket f.
	thr, tree, mask := make([]float32, len(keys)), make([]uint8, len(keys)), make([]uint64, len(keys))
	for f, begin := range end {
		stop := int32(len(keys))
		if f+1 < nfeat {
			stop = end[f+1]
		}
		if begin == stop {
			continue
		}
		slices.Sort(keys[begin:stop])
		for i := begin; i < stop; i++ {
			o := uint32(keys[i])
			thr[i], tree[i], mask[i] = b.thr[o], b.tree[o], b.mask[o]
		}
		b.lists = append(b.lists, qsList{first: thr[begin], feat: uint16(f), begin: begin, end: stop})
	}
	b.thr, b.tree, b.mask, b.feat = thr, tree, mask, nil

	// and[t] is the AND of tree t's masks among the list's nodes so far, for
	// the trees set in touched, which a checkpoint lists in tree order. The
	// walk runs twice: the first counts the entries, so that the second fills
	// arrays of their final size. They are built in locals: appending to the
	// block's own fields would store a slice header to the heap, under a
	// write barrier, per entry.
	var and [qsBlockTrees]uint64
	var touched [qsBlockTrees / 64]uint64
	var ckOff []int32
	var ckTree []uint8
	var ckMask []uint64
	entries, cks := 0, 0
	for _, fill := range []bool{false, true} {
		if fill {
			ckOff = make([]int32, 1, cks+1)
			ckTree, ckMask = make([]uint8, 0, entries), make([]uint64, 0, entries)
		}
		for i := range b.lists {
			l := &b.lists[i]
			l.ck = uint16(len(ckOff) - 1)
			touched = [qsBlockTrees / 64]uint64{}
			for j := int(l.begin); j < int(l.end); j++ {
				if p := j - int(l.begin); p > 0 && p%qsCkStride == 0 {
					cks++
					for w, set := range touched {
						if !fill {
							entries += bits.OnesCount64(set)
							continue
						}
						for ; set != 0; set &= set - 1 {
							t := w*64 + bits.TrailingZeros64(set)
							ckTree, ckMask = append(ckTree, uint8(t)), append(ckMask, and[t])
						}
					}
					if fill {
						ckOff = append(ckOff, int32(len(ckTree)))
					}
				}
				t := tree[j]
				if touched[t/64]&(1<<(t%64)) == 0 {
					touched[t/64] |= 1 << (t % 64)
					and[t] = ^uint64(0)
				}
				and[t] &= mask[j]
			}
		}
	}
	b.ckOff, b.ckTree, b.ckMask = ckOff, ckTree, ckMask
}

// thrKey maps a threshold to an integer whose order is cmp.Compare's: NaN
// lowest, -0 equal to +0, then ascending.
func thrKey(t float32) uint32 {
	if t != t {
		return 0
	}
	if t == 0 {
		t = 0 // -0 becomes +0
	}
	u := math.Float32bits(t)
	if u>>31 != 0 {
		return ^u // negative: a larger magnitude is a smaller key
	}
	return u | 1<<31
}

// checkpoint returns the checkpoint that a false prefix of k nodes of an
// n-node list starts from, 0 for none: the last one at or below k. There is
// none at position n itself, so a list whose length is a multiple of
// qsCkStride, failed to its end, starts from the one before.
func checkpoint(k, n int) int { return min(k, n-1) / qsCkStride }

// prefix splits the first k nodes of list l into the runs that apply them:
// the entries of its checkpoint (none for a prefix shorter than a stride),
// then the nodes [from, l.begin+k) past it.
func (b *qsBlock) prefix(l qsList, k int) (ckTree []uint8, ckMask []uint64, from int) {
	at := int(l.begin)
	c := checkpoint(k, int(l.end)-at)
	if c == 0 {
		return nil, nil, at
	}
	j := int(l.ck) + c - 1
	lo, hi := b.ckOff[j], b.ckOff[j+1]
	return b.ckTree[lo:hi], b.ckMask[lo:hi], at + c*qsCkStride
}

// prefixCost is the number of ANDs that apply the first k nodes of list l
// through prefix: never more than k, since a checkpoint has at most one entry
// per node it stands for.
func (b *qsBlock) prefixCost(l qsList, k int) int {
	ckTree, _, from := b.prefix(l, k)
	return len(ckTree) + int(l.begin) + k - from
}

// andPrefix applies the first k nodes of list l to the bitvectors bv.
func (b *qsBlock) andPrefix(bv *[qsBlockTrees]uint64, l qsList, k int) {
	ckTree, ckMask, from := b.prefix(l, k)
	if len(ckTree) > 0 {
		andMasks(bv, ckTree, ckMask)
	}
	if end := int(l.begin) + k; from < end {
		andMasks(bv, b.tree[from:end], b.mask[from:end])
	}
}

// falseCount returns how many nodes of a scan list — thr[at:end], the first
// of them first — are false for the feature value x. It searches on the
// walker's own predicate, not its complement: x <= float64(thr) is false along
// a prefix and true from there on (NaN thresholds sort first), and never true
// for a NaN x, which so fails the whole list and goes right at every node, as
// in Predict. It takes the list's fields, not the qsList: passed whole, the
// list was copied through the stack on every call of the kernels' loops.
func falseCount(thr []float32, first float32, at, end int, x float64) int {
	if x <= float64(first) {
		return 0
	}
	lo, hi := at+1, end
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if x <= float64(thr[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo - at
}

// falseCounts is falseCount on list l for the len(k) rows at v, a stride
// apart: k[r] for row r, and the least of them — the block split, the prefix
// of the list that every row fails.
func falseCounts(thr []float32, l qsList, v []float64, stride int, k []int) (minK int) {
	first, at, end, feat := l.first, int(l.begin), int(l.end), int(l.feat)
	minK = end - at
	for r := range k {
		k[r] = falseCount(thr, first, at, end, v[r*stride+feat])
		minK = min(minK, k[r])
	}
	return minK
}

// andMasks applies a run of nodes to the bitvectors of their trees. It and
// andMasksLane are kept out of line: inlined into the kernels, where every
// register is taken, these loops kept their counter in memory and ran at half
// the speed.
//
//go:noinline
func andMasks(bv *[qsBlockTrees]uint64, tree []uint8, mask []uint64) {
	mask = mask[:len(tree)]
	b := bv[:]
	for i, t := range tree {
		b[t] &= mask[i]
	}
}

// andMasksLane is andMasks on one row of a block's tree-major bitvectors.
//
//go:noinline
func andMasksLane(bv *[qsBlockTrees][qsRows]uint64, lane uint, tree []uint8, mask []uint64) {
	mask = mask[:len(tree)]
	b := bv[:]
	lane %= qsRows
	for i, t := range tree {
		b[t][lane] &= mask[i]
	}
}

// Starts are start bitvectors for rows that each equal one of a few base
// vectors on every feature outside a fixed set. The start of a base vector is,
// per tree, the leaves its decision nodes on the features outside the set
// leave standing; a row that begins from its base's start walks only the scan
// lists of the set's features. That is exact: outside the set the row's values
// are its base's bit for bit, so it fails the nodes there that the base does,
// and AND is commutative and idempotent, so applying those nodes once, before
// the row's own, leaves every bitvector — and every sum, still taken in tree
// order — what the full walk gives.
//
// The join enumerator uses them: every row it prices is a relation's scan
// pipeline plus join and aggregate stages, so it builds one start per relation
// and per enumeration, and its rows search only the lists of those stages'
// features. A Starts belongs to the Packed that made it; Add must not run
// while the kernel reads it.
type Starts struct {
	p     *Packed
	walk  [][]qsList // per kernel block, the lists on the set's features: what rows search
	rest  [][]qsList // per kernel block, the other lists: what Add applies
	trees int        // bitvectors a start holds, one per tree of the kernel
	bv    []uint64   // start i's, from i*trees; kernel block bi's from bi*qsBlockTrees in it
	n     int32      // starts added since Reset
	work  Work       // what Add applied since Reset
}

// NewStarts returns an empty Starts for rows that may differ from their base
// vector on the features feats lists (indices below NumFeatures) and no
// other. For an ensemble the kernel does not hold, starts hold nothing and
// the rows go through Predict.
func (p *Packed) NewStarts(feats []int) *Starts {
	in := make([]bool, p.NumFeatures)
	for _, f := range feats {
		in[f] = true
	}
	s := &Starts{p: p}
	for bi := range p.quick {
		b := &p.quick[bi]
		var walk, rest []qsList
		for _, l := range b.lists {
			if in[l.feat] {
				walk = append(walk, l)
			} else {
				rest = append(rest, l)
			}
		}
		s.walk, s.rest = append(s.walk, walk), append(s.rest, rest)
		s.trees += len(b.leafOff)
	}
	return s
}

// Reset drops every start, keeping the storage.
func (s *Starts) Reset() {
	s.bv, s.n, s.work = s.bv[:0], 0, Work{}
}

// Add computes the start of base, a vector of at least NumFeatures values,
// and returns its index: 0 for the first since Reset, then 1, 2, ....
func (s *Starts) Add(base []float64) int32 {
	var bv [qsBlockTrees]uint64
	for bi := range s.p.quick {
		b := &s.p.quick[bi]
		for t := range b.leafOff {
			bv[uint8(t)] = ^uint64(0)
		}
		for _, l := range s.rest[bi] {
			k := falseCount(b.thr, l.first, int(l.begin), int(l.end), base[l.feat])
			if k > 0 {
				b.andPrefix(&bv, l, k)
			}
			s.work = s.work.Plus(Work{Own: b.prefixCost(l, k), PerRow: k, Lists: 1})
		}
		s.bv = append(s.bv, bv[:len(b.leafOff)]...)
	}
	s.n++
	return s.n - 1
}

// Work returns what Add applied since Reset, in MaskCounts' terms: each
// start is one row scored alone over the lists outside the set.
func (s *Starts) Work() Work { return s.work }

// block returns start i's bitvectors for kernel block bi.
func (s *Starts) block(i int32, bi int) []uint64 {
	at := int(i)*s.trees + bi*qsBlockTrees
	return s.bv[at : at+len(s.p.quick[bi].leafOff)]
}

// startOf is row r's start: start[r], or 0 for every row when start is nil.
func startOf(start []int32, r int) int32 {
	if start == nil {
		return 0
	}
	return start[r]
}

// scoreRows is the kernel behind PredictRowsInto and PredictRowsFrom: blocks
// of qsRows rows, the last of them as short as the batch leaves it if that is
// at least qsMinBlock rows, and otherwise those last rows one by one through
// scoreOne, every row from its start in s. Either way a row's leaves are added
// to Base in tree order, so every sum is bit-identical to Predict's.
func (p *Packed) scoreRows(rows []float64, stride int, s *Starts, start []int32, out []float64) {
	n := len(out)
	if tail := n % qsRows; tail < qsMinBlock {
		n -= tail
		for r := n; r < len(out); r++ {
			out[r] = p.scoreOne(rows[r*stride:], s, startOf(start, r))
		}
	}
	if n > 0 {
		p.scoreBlocks(rows, stride, s, start, out[:n])
	}
}

// scoreBlocks scores len(out) rows, qsRows at a time and the rest, at least
// qsMinBlock of them, as one narrower block. The bitvectors are tree-major,
// so one cache line holds a tree's eight rows, and the eight sums are locals,
// not an array, so they stay in registers; a narrower block's unused lanes
// keep the start of its last row and are summed and dropped. A block whose
// rows share one start, as every block of PredictRowsInto does, takes it as
// its shared bitvectors; otherwise each lane copies its own start.
func (p *Packed) scoreBlocks(rows []float64, stride int, s *Starts, start []int32, out []float64) {
	var shared [qsBlockTrees]uint64
	var own [qsBlockTrees][qsRows]uint64
	for r0 := 0; r0 < len(out); r0 += qsRows {
		m := min(qsRows, len(out)-r0)
		v := rows[r0*stride : (r0+m-1)*stride+p.NumFeatures]
		var lane [qsRows]int32 // each lane's start
		uniform := true
		if start != nil {
			for r := range lane {
				lane[r] = start[r0+min(r, m-1)]
				uniform = uniform && lane[r] == lane[0]
			}
		}
		s0, s1, s2, s3, s4, s5, s6, s7 := p.Base, p.Base, p.Base, p.Base, p.Base, p.Base, p.Base, p.Base
		for bi := range p.quick {
			b := &p.quick[bi]
			var from [qsRows][]uint64
			if from[0] = s.block(lane[0], bi); !uniform {
				for r, i := range lane {
					from[r] = s.block(i, bi)
				}
			}
			b.failBlock(s.walk[bi], v, stride, m, &from, uniform, &shared, &own)
			leaves := b.leaves
			for t, off := range b.leafOff {
				sh, o, lv := shared[uint8(t)], &own[uint8(t)], leaves[off:]
				s0 += lv[bits.TrailingZeros64(o[0]&sh)]
				s1 += lv[bits.TrailingZeros64(o[1]&sh)]
				s2 += lv[bits.TrailingZeros64(o[2]&sh)]
				s3 += lv[bits.TrailingZeros64(o[3]&sh)]
				s4 += lv[bits.TrailingZeros64(o[4]&sh)]
				s5 += lv[bits.TrailingZeros64(o[5]&sh)]
				s6 += lv[bits.TrailingZeros64(o[6]&sh)]
				s7 += lv[bits.TrailingZeros64(o[7]&sh)]
			}
		}
		if m == qsRows {
			o := out[r0 : r0+qsRows : r0+qsRows]
			o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = s0, s1, s2, s3, s4, s5, s6, s7
		} else {
			s := [qsRows]float64{s0, s1, s2, s3, s4, s5, s6, s7}
			copy(out[r0:], s[:m])
		}
	}
}

// failBlock sets the bitvectors of the block's trees for the m <= qsRows rows
// at v, lane r starting from from[r]: those leaves, minus the ones the rows'
// false nodes on lists rule out — in shared the nodes every row fails, in
// own[t][r] the rest of row r's, or all of them when that is fewer ANDs. When
// uniform, every lane's start is from[0] and becomes shared; otherwise lane
// r's becomes own[t][r], written word by word: building a tree's eight lanes
// in a temporary and copying it stalled on every copy and took an eighth of
// the join enumerator's time.
func (b *qsBlock) failBlock(lists []qsList, v []float64, stride, m int, from *[qsRows][]uint64, uniform bool, shared *[qsBlockTrees]uint64, own *[qsBlockTrees][qsRows]uint64) {
	nt := len(b.leafOff)
	if uniform {
		var all [qsRows]uint64
		for r := range all {
			all[r] = ^uint64(0)
		}
		copy(shared[:nt], from[0])
		for t := range own[:nt] {
			own[t] = all
		}
	} else {
		f0, f1, f2, f3 := from[0][:nt], from[1][:nt], from[2][:nt], from[3][:nt]
		f4, f5, f6, f7 := from[4][:nt], from[5][:nt], from[6][:nt], from[7][:nt]
		for t := range own[:nt] {
			shared[t] = ^uint64(0)
			o := &own[t]
			o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = f0[t], f1[t], f2[t], f3[t], f4[t], f5[t], f6[t], f7[t]
		}
	}
	thr, tree, mask := b.thr, b.tree, b.mask
	for _, l := range lists {
		var k [qsRows]int
		minK := falseCounts(thr, l, v, stride, k[:m])
		if minK > 0 {
			b.andPrefix(shared, l, minK)
		}
		at := int(l.begin)
		for r, kr := range k[:m] {
			if kr == minK {
				continue
			}
			lo := at + minK
			if ckTree, ckMask, from := b.prefix(l, kr); len(ckTree)+at+kr-from < kr-minK {
				andMasksLane(own, uint(r), ckTree, ckMask)
				lo = from
			}
			if lo < at+kr {
				andMasksLane(own, uint(r), tree[lo:at+kr], mask[lo:at+kr])
			}
		}
	}
}

// scoreOne scores the one row v from start i of s: the same search, each
// list's whole prefix applied through its checkpoint to one bitvector per
// tree. Its frame is a ninth of scoreBlocks's, which a short call would
// otherwise clear.
func (p *Packed) scoreOne(v []float64, s *Starts, i int32) float64 {
	var bv [qsBlockTrees]uint64
	sum := p.Base
	for bi := range p.quick {
		b := &p.quick[bi]
		copy(bv[:], s.block(i, bi))
		for _, l := range s.walk[bi] {
			if k := falseCount(b.thr, l.first, int(l.begin), int(l.end), v[l.feat]); k > 0 {
				b.andPrefix(&bv, l, k)
			}
		}
		leaves := b.leaves
		for t, off := range b.leafOff {
			sum += leaves[int(off)+bits.TrailingZeros64(bv[uint8(t)])]
		}
	}
	return sum
}

// Work is the kernel's work as counts, not time.
type Work struct {
	// Shared counts the masks, checkpoint entries included, applied once for
	// a whole block of up to qsRows rows.
	Shared int
	// Own counts the masks applied to a single row's bitvectors; rows scored
	// one by one count all theirs here.
	Own int
	// PerRow is what a kernel with neither the block split nor the
	// checkpoints applies: every row's false nodes on the lists it searches,
	// Σ k.
	PerRow int
	// Lists counts the list searches: one per row and list searched.
	Lists int
}

// Plus returns the sum of two counts.
func (w Work) Plus(o Work) Work {
	return Work{Shared: w.Shared + o.Shared, Own: w.Own + o.Own, PerRow: w.PerRow + o.PerRow, Lists: w.Lists + o.Lists}
}

// MaskCounts runs the kernel's search, block split and checkpoint choices
// over n rows laid out as for PredictRowsFrom with starts s (nil: every list,
// as PredictRowsInto), without scoring them, and returns the work. What the
// starts themselves applied is s.Work, counted once for all the rows that
// begin from them. An ensemble the kernel does not hold counts nothing.
func (p *Packed) MaskCounts(rows []float64, stride, n int, s *Starts) (w Work) {
	if s == nil {
		s = p.all
	}
	for bi := range p.quick {
		b := &p.quick[bi]
		for _, l := range s.walk[bi] {
			for r0 := 0; r0 < n; r0 += qsRows {
				var k [qsRows]int
				m := min(qsRows, n-r0)
				minK := falseCounts(b.thr, l, rows[r0*stride:], stride, k[:m])
				w.Lists += m
				if m < qsMinBlock {
					for _, kr := range k[:m] {
						w.Own, w.PerRow = w.Own+b.prefixCost(l, kr), w.PerRow+kr
					}
					continue
				}
				w.Shared += b.prefixCost(l, minK)
				for _, kr := range k[:m] {
					w.Own, w.PerRow = w.Own+min(kr-minK, b.prefixCost(l, kr)), w.PerRow+kr
				}
			}
		}
	}
	return w
}
