package treec

import "math"

// rowsLayout is the flat-row batch kernel's private compilation of the packed
// ensemble, built lazily on first PredictRowsInto call. Each tree is re-laid
// out as relative 8-byte nodes — threshold float32, feature uint16, and both
// child indices as uint8 offsets from the tree base — so one 64-bit load
// fetches a whole node and the ~80-tree working set stays L1-resident. Every
// leaf becomes a terminal node that routes to itself, which lets the kernel
// walk a fixed per-tree depth with no per-step exit test: finished walks spin
// harmlessly on their terminal until the deepest walk lands. Terminal nodes
// carry the float64 leaf value in a parallel array, so per-row sums remain
// bit-identical to Predict.
//
// ok is false when a tree exceeds the uint8 index space (128 or more interior
// nodes, i.e. ensembles beyond ~127 leaves per tree); PredictRowsInto then
// scores every row through Predict.
type rowsLayout struct {
	ok    bool
	nodes []uint64
	val   []float64
	off   []int32 // per-tree start into nodes/val
	depth []int32 // fixed walk depth per tree (deepest terminal)
}

// rowsLanes is the number of rows the kernel walks in lockstep; parallel
// chunks are multiples of it so every worker runs the kernel at full width.
const rowsLanes = 8

// rowsNode packs one relative node: threshold bits low, feature, then the two
// uint8 child offsets.
func rowsNode(thr float32, feat uint16, l, r int32) uint64 {
	return uint64(math.Float32bits(thr)) | uint64(feat)<<32 | uint64(uint8(l))<<48 | uint64(uint8(r))<<56
}

// rowsKernel returns the lazily built layout (shared; build is idempotent).
func (p *Packed) rowsKernel() *rowsLayout {
	p.rowsOnce.Do(func() { p.rowsL = buildRowsLayout(p) })
	return p.rowsL
}

// buildRowsLayout compiles the packed trees into the row-kernel layout.
func buildRowsLayout(p *Packed) *rowsLayout {
	g := &rowsLayout{ok: true}
	for ti, root := range p.Roots {
		cnt := p.treeEnd(ti) - root
		// Interior nodes plus one terminal per leaf reference; every interior
		// has two children, so terminals ≤ cnt+1 and the local index space is
		// 2*cnt+1. Reject trees that overflow uint8 offsets.
		if 2*cnt+1 > 256 {
			return &rowsLayout{}
		}
		base := int32(len(g.nodes))
		g.off = append(g.off, base)
		for j := int32(0); j < cnt; j++ {
			g.nodes = append(g.nodes, 0)
			g.val = append(g.val, 0)
		}
		for j := int32(0); j < cnt; j++ {
			n := p.Nodes[root+j]
			lc, rc := n.Left, n.Right
			var ll, rr int32
			if lc >= 0 {
				ll = lc - root
			} else {
				ll = int32(len(g.nodes)) - base
				g.nodes = append(g.nodes, rowsNode(0, 0, ll, ll))
				g.val = append(g.val, p.Leaves[^lc])
			}
			if rc >= 0 {
				rr = rc - root
			} else {
				rr = int32(len(g.nodes)) - base
				g.nodes = append(g.nodes, rowsNode(0, 0, rr, rr))
				g.val = append(g.val, p.Leaves[^rc])
			}
			g.nodes[base+j] = rowsNode(n.Thr, n.Feature, ll, rr)
		}
		// Fixed walk depth: the deepest terminal. Packed BFS order guarantees
		// child indices exceed their parent's, so one forward pass suffices.
		local := g.nodes[base:]
		dist := make([]int32, int32(len(g.nodes))-base)
		maxd := int32(0)
		for j := range local {
			w := local[j]
			l := int32(uint8(w >> 48))
			r := int32(uint8(w >> 56))
			if l == int32(j) && r == int32(j) { // terminal
				if dist[j] > maxd {
					maxd = dist[j]
				}
				continue
			}
			dist[l] = dist[j] + 1
			dist[r] = dist[j] + 1
		}
		g.depth = append(g.depth, maxd)
	}
	return g
}

// rowsStep advances one branchless walk: a single 64-bit node load, a float32
// threshold compare materialized as a sign mask, and an arithmetic select of
// the child offset. No branches, so eight interleaved walks keep their
// load→compare→select chains overlapped instead of serializing on branch
// mispredictions.
func rowsStep(w uint64, v []float64) int32 {
	l := int32(uint8(w >> 48))
	r := int32(uint8(w >> 56))
	m := -boolToInt32(v[uint16(w>>32)] > float64(math.Float32frombits(uint32(w))))
	return l ^ ((l ^ r) & m)
}

// boolToInt32 materializes a comparison as 0/1 without a branch (SETcc).
func boolToInt32(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// predictRowsFast is the 8-wide fixed-depth kernel over the rows layout.
// Per output element, tree contributions are added in tree order, keeping
// results bit-identical to Predict.
func (p *Packed) predictRowsFast(g *rowsLayout, rows []float64, stride int, out []float64) {
	nr := len(out)
	for k := range out {
		out[k] = p.Base
	}
	r := 0
	for ; r+7 < nr; r += 8 {
		v0 := rows[r*stride : (r+1)*stride]
		v1 := rows[(r+1)*stride : (r+2)*stride]
		v2 := rows[(r+2)*stride : (r+3)*stride]
		v3 := rows[(r+3)*stride : (r+4)*stride]
		v4 := rows[(r+4)*stride : (r+5)*stride]
		v5 := rows[(r+5)*stride : (r+6)*stride]
		v6 := rows[(r+6)*stride : (r+7)*stride]
		v7 := rows[(r+7)*stride : (r+8)*stride]
		o := out[r : r+8]
		for t := range g.off {
			lo := g.off[t]
			hi := int32(len(g.nodes))
			if t+1 < len(g.off) {
				hi = g.off[t+1]
			}
			nodes := g.nodes[lo:hi]
			val := g.val[lo:hi]
			var i0, i1, i2, i3, i4, i5, i6, i7 int32
			for d := g.depth[t]; d > 0; d-- {
				w0 := nodes[i0]
				w1 := nodes[i1]
				w2 := nodes[i2]
				w3 := nodes[i3]
				w4 := nodes[i4]
				w5 := nodes[i5]
				w6 := nodes[i6]
				w7 := nodes[i7]
				n0 := rowsStep(w0, v0)
				n1 := rowsStep(w1, v1)
				n2 := rowsStep(w2, v2)
				n3 := rowsStep(w3, v3)
				n4 := rowsStep(w4, v4)
				n5 := rowsStep(w5, v5)
				n6 := rowsStep(w6, v6)
				n7 := rowsStep(w7, v7)
				// Terminal nodes route to themselves, so all eight walks are
				// done exactly when no index moved. Leaf-wise trees are deep
				// for only a few paths; cutting the walk at the deepest of the
				// eight actual paths (instead of the tree's max depth) skips
				// the skew waste.
				moved := (i0 ^ n0) | (i1 ^ n1) | (i2 ^ n2) | (i3 ^ n3) |
					(i4 ^ n4) | (i5 ^ n5) | (i6 ^ n6) | (i7 ^ n7)
				i0, i1, i2, i3, i4, i5, i6, i7 = n0, n1, n2, n3, n4, n5, n6, n7
				if moved == 0 {
					break
				}
			}
			o[0] += val[i0]
			o[1] += val[i1]
			o[2] += val[i2]
			o[3] += val[i3]
			o[4] += val[i4]
			o[5] += val[i5]
			o[6] += val[i6]
			o[7] += val[i7]
		}
	}
	for ; r < nr; r++ {
		out[r] = p.Predict(rows[r*stride : (r+1)*stride])
	}
}
