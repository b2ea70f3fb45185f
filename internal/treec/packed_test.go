package treec

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"t3/internal/gbdt"
)

func TestPackedNodeIs16Bytes(t *testing.T) {
	if s := unsafe.Sizeof(PackedNode{}); s != 16 {
		t.Fatalf("PackedNode is %d bytes, want 16", s)
	}
}

func TestPackedFoldsConstantTrees(t *testing.T) {
	m := &gbdt.Model{
		BaseScore:   1.5,
		NumFeatures: 1,
		Trees: []gbdt.Tree{
			{Leaves: []float64{0.25}},
			{Leaves: []float64{-0.5}},
		},
	}
	p := Pack(m)
	if len(p.Roots) != 0 {
		t.Fatalf("constant trees should fold away, got %d roots", len(p.Roots))
	}
	if got := p.Predict([]float64{7}); got != 1.25 {
		t.Fatalf("folded base = %v, want 1.25", got)
	}
}

// TestPackRefusesInexactThreshold: Pack stores every threshold as the float32
// it is, so a threshold between two float32s — which Validate refuses and the
// trainer never writes — is reported, not rounded.
func TestPackRefusesInexactThreshold(t *testing.T) {
	m := &gbdt.Model{NumFeatures: 1, Trees: []gbdt.Tree{
		{Nodes: []gbdt.Node{{Feature: 0, Threshold: 0.1, Left: ^0, Right: ^1}}, Leaves: []float64{1, 2}},
	}}
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "tree 0 node 0: threshold 0.1 is not a float32") {
			t.Fatalf("Pack of threshold 0.1: panic %v, want one naming tree 0 node 0", r)
		}
	}()
	Pack(m)
}

func TestPackedBreadthFirstLayout(t *testing.T) {
	m := trainToy(t, 10, 16, 31)
	p := Pack(m)
	if len(p.Roots) == 0 {
		t.Fatal("no trees packed")
	}
	// Roots are in tree order and each tree's block is contiguous: every
	// internal child index stays within [root, nextRoot) and is strictly
	// greater than its parent (BFS property).
	for ti, root := range p.Roots {
		end := int32(len(p.Nodes))
		if ti+1 < len(p.Roots) {
			end = p.Roots[ti+1]
		}
		for i := root; i < end; i++ {
			n := p.Nodes[i]
			for _, c := range []int32{n.Left, n.Right} {
				if c < 0 {
					if int(^c) >= len(p.Leaves) {
						t.Fatalf("tree %d node %d: leaf %d out of range", ti, i, ^c)
					}
					continue
				}
				if c <= i || c >= end {
					t.Fatalf("tree %d node %d: child %d outside BFS block (%d, %d)", ti, i, c, i, end)
				}
			}
		}
	}
}

func TestPackedPredictZeroAlloc(t *testing.T) {
	m := trainToy(t, 30, 12, 34)
	p := Pack(m)
	v := []float64{3, 120, 4}
	if allocs := testing.AllocsPerRun(100, func() {
		p.Predict(v)
	}); allocs != 0 {
		t.Fatalf("Predict allocates %.1f objects per run, want 0", allocs)
	}
}

// TestPackedMatchesModelStructure: Pack keeps every decision node and every
// leaf of the multi-node trees, one root per such tree.
func TestPackedMatchesModelStructure(t *testing.T) {
	m := trainToy(t, 25, 16, 36)
	p := Pack(m)
	var nodes, leaves, roots int
	for i := range m.Trees {
		if len(m.Trees[i].Nodes) == 0 {
			continue
		}
		nodes += len(m.Trees[i].Nodes)
		leaves += len(m.Trees[i].Leaves)
		roots++
	}
	if len(p.Nodes) != nodes || len(p.Leaves) != leaves || len(p.Roots) != roots {
		t.Fatalf("packed has %d nodes, %d leaves, %d roots; model has %d, %d, %d",
			len(p.Nodes), len(p.Leaves), len(p.Roots), nodes, leaves, roots)
	}
}

// TestPackDeterministic: compiling the same ensemble twice yields the same
// layout — the walker's arrays and every array of the bitvector kernel's
// blocks, whose scan lists are sorted, so ties must not depend on the sort. A
// stored model is compiled afresh on every load, so bit-identical rollback
// rests on this.
func TestPackDeterministic(t *testing.T) {
	m := trainToy(t, 25, 16, 36)
	// More trees than one block holds, and each threshold many times over.
	for len(m.Trees) < 2*qsBlockTrees+10 {
		m.Trees = append(m.Trees, m.Trees[:25]...)
	}
	a, b := Pack(m), Pack(m)
	if !slices.Equal(a.Nodes, b.Nodes) || !slices.Equal(a.Roots, b.Roots) ||
		!slices.Equal(a.Leaves, b.Leaves) || a.Base != b.Base {
		t.Fatal("two Packs of the same model differ")
	}
	if len(a.quick) != 3 || !slices.EqualFunc(a.quick, b.quick, func(x, y qsBlock) bool {
		return slices.Equal(x.lists, y.lists) && slices.Equal(x.thr, y.thr) && slices.Equal(x.tree, y.tree) &&
			slices.Equal(x.mask, y.mask) && slices.Equal(x.leafOff, y.leafOff) && slices.Equal(x.leaves, y.leaves)
	}) {
		t.Fatalf("two Packs of the same model differ in the kernel layout (%d blocks)", len(a.quick))
	}
	// Within a scan list thresholds ascend, and equal ones keep tree order.
	for _, blk := range a.quick {
		if blk.feat != nil {
			t.Fatal("sealed block still holds its build-time feature array")
		}
		at := int32(0)
		for li, l := range blk.lists {
			if l.end <= at || l.first != blk.thr[at] || (li > 0 && l.feat <= blk.lists[li-1].feat) {
				t.Fatalf("list %d (feature %d, first %v) spans [%d, %d), first threshold there %v", li, l.feat, l.first, at, l.end, blk.thr[at])
			}
			for i := at + 1; i < l.end; i++ {
				if blk.thr[i-1] > blk.thr[i] || (blk.thr[i-1] == blk.thr[i] && blk.tree[i-1] > blk.tree[i]) {
					t.Fatalf("feature %d: node %d (thr %v, tree %d) sorts after node %d (thr %v, tree %d)",
						l.feat, i-1, blk.thr[i-1], blk.tree[i-1], i, blk.thr[i], blk.tree[i])
				}
			}
			at = l.end
		}
		if int(at) != len(blk.thr) || len(blk.tree) != len(blk.thr) || len(blk.mask) != len(blk.thr) {
			t.Fatalf("lists end at %d of %d/%d/%d nodes", at, len(blk.thr), len(blk.tree), len(blk.mask))
		}
	}
}

// TestSealOrder: seal's integer sort puts every block's nodes in the order of
// the comparator it stands for — feature, then cmp.Compare on the threshold
// (NaN first, ±0 tied), then the order qsAdd met them — on random models
// whose edge thresholds include NaN, ±0 and ±Inf, up to three blocks each.
func TestSealOrder(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := genModel(rng, uint64(rng.Intn(128)))
		var blocks []qsBlock
		for ti := range m.Trees {
			if tr := &m.Trees[ti]; len(tr.Nodes) > 0 && len(tr.Leaves) <= qsMaxLeaves {
				blocks = qsAdd(blocks, m.Trees[ti:])
			}
		}
		for bi := range blocks {
			b := &blocks[bi]
			order := make([]int, len(b.thr))
			for i := range order {
				order[i] = i
			}
			slices.SortFunc(order, func(x, y int) int {
				return cmp.Or(cmp.Compare(b.feat[x], b.feat[y]), cmp.Compare(b.thr[x], b.thr[y]), cmp.Compare(x, y))
			})
			var thr []uint32
			var tree []uint8
			var mask []uint64
			for _, o := range order {
				thr = append(thr, math.Float32bits(b.thr[o]))
				tree, mask = append(tree, b.tree[o]), append(mask, b.mask[o])
			}
			b.seal()
			for i := range thr {
				if math.Float32bits(b.thr[i]) != thr[i] || b.tree[i] != tree[i] || b.mask[i] != mask[i] {
					t.Fatalf("seed %d block %d position %d: sealed (%v, tree %d), want (%v, tree %d)",
						seed, bi, i, b.thr[i], b.tree[i], math.Float32frombits(thr[i]), tree[i])
				}
			}
		}
	}
}
