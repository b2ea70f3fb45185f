package treec

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"t3/internal/gbdt"
)

func TestPackedNodeIs16Bytes(t *testing.T) {
	if s := unsafe.Sizeof(PackedNode{}); s != 16 {
		t.Fatalf("PackedNode is %d bytes, want 16", s)
	}
}

func TestRoundThreshold32Contract(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200000; i++ {
		var x float64
		switch rng.Intn(4) {
		case 0:
			x = rng.Float64()
		case 1:
			x = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(17)-8))
		case 2:
			x = float64(rng.Intn(1 << 30))
		default:
			x = math.Float64frombits(rng.Uint64() &^ (0x7ff << 52)) // finite, small exp
		}
		up := RoundThreshold32(x)
		if float64(up) < x {
			t.Fatalf("RoundThreshold32(%v) = %v < input", x, up)
		}
		if float64(up) > x {
			// Must be the *smallest* such float32: one step down is below x.
			down := math.Nextafter32(up, float32(math.Inf(-1)))
			if float64(down) >= x {
				t.Fatalf("RoundThreshold32(%v) = %v not minimal (%v also >= input)", x, up, down)
			}
		}
	}
}

// randomEnsemble builds a synthetic model directly (bypassing training) so
// equivalence tests can control threshold representability. Thresholds are
// drawn by thr; trees are random complete-ish binary trees.
func randomEnsemble(rng *rand.Rand, trees, numFeat int, thr func() float64) *gbdt.Model {
	m := &gbdt.Model{BaseScore: rng.NormFloat64(), NumFeatures: numFeat}
	for t := 0; t < trees; t++ {
		nNodes := 1 + rng.Intn(31)
		tree := gbdt.Tree{}
		// Sequentially grown left/right children: node i's children are
		// either later nodes or fresh leaves.
		nextLeaf := int32(0)
		leaf := func() int32 {
			l := nextLeaf
			nextLeaf++
			tree.Leaves = append(tree.Leaves, rng.NormFloat64())
			return ^l
		}
		nextNode := int32(1)
		child := func() int32 {
			if int(nextNode) < nNodes && rng.Intn(3) > 0 {
				n := nextNode
				nextNode++
				return n
			}
			return leaf()
		}
		for i := 0; i < nNodes; i++ {
			n := gbdt.Node{Feature: int32(rng.Intn(numFeat)), Threshold: thr()}
			n.Left = child()
			n.Right = child()
			tree.Nodes = append(tree.Nodes, n)
		}
		// Any declared-but-never-reached nodes would corrupt the walk; trim
		// to the nodes actually linked.
		tree.Nodes = tree.Nodes[:nextNode]
		m.Trees = append(m.Trees, tree)
	}
	// No constant trees here: folding them into the base changes summation
	// order vs the interpreted tier, which would break the bit-equality
	// checks below. TestPackedFoldsConstantTrees covers folding.
	return m
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

// TestPackedExactEquivalence: when every threshold round-trips through
// float32, Packed is bit-identical to the interpreter on every input.
func TestPackedExactEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		m := randomEnsemble(rng, 1+rng.Intn(8), 6, func() float64 {
			return float64(float32(rng.NormFloat64() * 100))
		})
		p := Pack(m)
		if !p.Exact {
			t.Fatalf("trial %d: float32 thresholds must pack exactly", trial)
		}
		for i := 0; i < 2000; i++ {
			v := make([]float64, m.NumFeatures)
			for j := range v {
				v[j] = rng.NormFloat64() * 100
			}
			want := m.Predict(v)
			if got := p.Predict(v); got != want {
				t.Fatalf("trial %d: packed %v != interpreted %v", trial, got, want)
			}
		}
	}
}

// TestPackedGapContract: with arbitrary float64 thresholds, packed may only
// disagree with the float64 interpreter when some feature value lies in a
// documented rounding gap — and ties always stay on the trained side.
func TestPackedGapContract(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	disagreements := 0
	for trial := 0; trial < 20; trial++ {
		m := randomEnsemble(rng, 1+rng.Intn(8), 6, func() float64 {
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
		})
		f := Flatten(m)
		p := Pack(m)
		for i := 0; i < 2000; i++ {
			v := make([]float64, m.NumFeatures)
			for j := range v {
				if rng.Intn(4) == 0 {
					// Reuse an exact threshold value: a tie, which must
					// resolve identically (left) in both.
					v[j] = f.Threshold[rng.Intn(len(f.Threshold))]
				} else {
					v[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
				}
			}
			want := m.Predict(v)
			got := p.Predict(v)
			if got != want {
				disagreements++
				if !f.InRoundingGap(v) {
					t.Fatalf("trial %d: packed %v != interpreted %v but no feature value in a rounding gap", trial, got, want)
				}
			}
		}
	}
	t.Logf("%d/40000 vectors hit a rounding gap", disagreements)
}

// TestPackedGapDirected plants feature values exactly inside rounding gaps —
// random vectors essentially never land in the ~1-ulp windows — and checks
// that (a) InRoundingGap flags them, and (b) packed sends them left (the
// <= side) where the float64 interpreter sends them right.
func TestPackedGapDirected(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := randomEnsemble(rng, 6, 6, func() float64 {
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
	})
	f := Flatten(m)
	p := Pack(m)
	probed := 0
	for i, t64 := range f.Threshold {
		up := float64(RoundThreshold32(t64))
		if up == t64 {
			continue
		}
		v := make([]float64, m.NumFeatures)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		v[f.Feature[i]] = up // inside the half-open gap (t64, up]
		if !f.InRoundingGap(v) {
			t.Fatalf("node %d: value %v in gap (%v, %v] not flagged", i, up, t64, up)
		}
		// The planted value compares differently at this node: packed takes
		// the left (<=) branch (up <= float64(thr32) by construction), the
		// interpreter the right — which requires it to sit strictly above
		// the trained threshold.
		if up <= t64 {
			t.Fatalf("node %d: planted value %v not strictly above threshold %v", i, up, t64)
		}
		probed++
		// And packed vs interpreted whole-model disagreement, when it
		// happens, is always explained.
		if p.Predict(v) != m.Predict(v) && !f.InRoundingGap(v) {
			t.Fatalf("node %d: unexplained disagreement", i)
		}
	}
	if probed == 0 {
		t.Skip("no non-round-tripping thresholds in this ensemble")
	}
	t.Logf("probed %d rounding gaps", probed)
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
	if f := Flatten(m); len(f.Threshold) != nodes || len(f.Feature) != nodes {
		t.Fatalf("threshold table has %d/%d entries, want %d", len(f.Threshold), len(f.Feature), nodes)
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
