package treec

import (
	"math"
	"math/rand"
	"testing"

	"t3/internal/gbdt"
)

// genTree builds a random regression tree; about a fifth are single-leaf
// (constant) trees, which Pack and GenGo fold into the base score.
func genTree(rng *rand.Rand, nFeatures int, exact32 bool) gbdt.Tree {
	if rng.Intn(5) == 0 {
		return gbdt.Tree{Leaves: []float64{rng.Float64()*4 - 2}}
	}
	var t gbdt.Tree
	var build func(depth int) int32
	build = func(depth int) int32 {
		if depth >= 4 || (depth > 0 && rng.Intn(3) == 0) {
			t.Leaves = append(t.Leaves, rng.Float64()*4-2)
			return ^int32(len(t.Leaves) - 1)
		}
		idx := int32(len(t.Nodes))
		t.Nodes = append(t.Nodes, gbdt.Node{})
		thr := rng.Float64()*20 - 10
		if exact32 || rng.Intn(2) == 0 {
			thr = float64(float32(thr)) // representable in float32: no rounding gap
		}
		n := gbdt.Node{Feature: int32(rng.Intn(nFeatures)), Threshold: thr}
		n.Left = build(depth + 1)
		n.Right = build(depth + 1)
		t.Nodes[idx] = n
		return idx
	}
	build(0)
	return t
}

// refFoldPredict is the float64 reference: the interpreter's per-tree walk
// (gbdt.Tree.Predict) summed in the compiled order — base score plus constant
// trees first (in tree order), then multi-node trees (in tree order).
func refFoldPredict(m *gbdt.Model, v []float64) float64 {
	s := m.BaseScore
	for i := range m.Trees {
		if len(m.Trees[i].Nodes) == 0 {
			s += m.Trees[i].Leaves[0]
		}
	}
	for i := range m.Trees {
		if len(m.Trees[i].Nodes) > 0 {
			s += m.Trees[i].Predict(v)
		}
	}
	return s
}

// simGenGo walks the trees the way the generated Go code evaluates them:
// identical structure to the interpreter but with every threshold rounded
// through RoundThreshold32 — the documented reason GenGo output is
// bit-equivalent to the packed tier.
func simGenGo(m *gbdt.Model, v []float64) float64 {
	s := m.BaseScore
	for i := range m.Trees {
		if len(m.Trees[i].Nodes) == 0 {
			s += m.Trees[i].Leaves[0]
		}
	}
	for ti := range m.Trees {
		t := &m.Trees[ti]
		if len(t.Nodes) == 0 {
			continue
		}
		i := int32(0)
		for {
			n := &t.Nodes[i]
			var next int32
			if v[n.Feature] <= float64(RoundThreshold32(n.Threshold)) {
				next = n.Left
			} else {
				next = n.Right
			}
			if next < 0 {
				s += t.Leaves[^next]
				break
			}
			i = next
		}
	}
	return s
}

// genVectors produces random probe vectors plus adversarial ones pinned at
// and around the model's trained thresholds: the exact threshold, one ulp to
// either side, the rounded-up float32 threshold, and one ulp past it — the
// boundary inputs of the (t, thr32] rounding-gap contract.
func genVectors(rng *rand.Rand, m *gbdt.Model, n int) [][]float64 {
	var nodes []gbdt.Node
	for i := range m.Trees {
		nodes = append(nodes, m.Trees[i].Nodes...)
	}
	vs := make([][]float64, 0, n)
	for i := 0; i < n; i++ {
		v := make([]float64, m.NumFeatures)
		for j := range v {
			v[j] = rng.Float64()*24 - 12
		}
		if len(nodes) > 0 && i%2 == 0 {
			nd := nodes[rng.Intn(len(nodes))]
			t64 := nd.Threshold
			up := float64(RoundThreshold32(t64))
			probes := []float64{
				t64,
				math.Nextafter(t64, math.Inf(-1)),
				math.Nextafter(t64, math.Inf(1)),
				up,
				math.Nextafter(up, math.Inf(1)),
			}
			v[nd.Feature] = probes[rng.Intn(len(probes))]
		}
		vs = append(vs, v)
	}
	return vs
}

// checkTreeTiers asserts the full equivalence contract for one model:
// interpreter reference ↔ Packed.Predict ↔ PredictRowsInto ↔ generated-code
// semantics.
func checkTreeTiers(t *testing.T, seed int64, nvec uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nFeatures := 1 + rng.Intn(8)
	nTrees := 1 + rng.Intn(6)
	exact32 := rng.Intn(4) == 0 // some models have only float32-exact thresholds
	m := &gbdt.Model{BaseScore: rng.Float64()*2 - 1, NumFeatures: nFeatures}
	for i := 0; i < nTrees; i++ {
		m.Trees = append(m.Trees, genTree(rng, nFeatures, exact32))
	}

	gaps := Flatten(m)
	packed := Pack(m)
	if exact32 && !packed.Exact {
		t.Fatalf("seed=%d: all thresholds float32-exact but Packed.Exact=false", seed)
	}

	vs := genVectors(rng, m, 4+int(nvec%64))
	for vi, v := range vs {
		ref := refFoldPredict(m, v)
		pp := packed.Predict(v)
		if math.Float64bits(pp) != math.Float64bits(ref) {
			// Divergence is legal only on inexact models AND inside the
			// documented rounding gap.
			if packed.Exact {
				t.Fatalf("seed=%d vec=%d: exact packed diverges: reference=%v packed=%v", seed, vi, ref, pp)
			}
			if !gaps.InRoundingGap(v) {
				t.Fatalf("seed=%d vec=%d: packed diverges outside the rounding gap: reference=%v packed=%v v=%v",
					seed, vi, ref, pp, v)
			}
		}

		if gg := simGenGo(m, v); math.Float64bits(gg) != math.Float64bits(pp) {
			t.Fatalf("seed=%d vec=%d: generated-code semantics=%v packed=%v (must be bit-identical)",
				seed, vi, gg, pp)
		}
	}

	// The rows kernel is bit-identical to the scalar walk, row for row.
	rows := make([]float64, 0, len(vs)*nFeatures)
	for _, v := range vs {
		rows = append(rows, v...)
	}
	out := make([]float64, len(vs))
	packed.PredictRowsInto(rows, nFeatures, out, nil)
	for i, v := range vs {
		if math.Float64bits(out[i]) != math.Float64bits(packed.Predict(v)) {
			t.Fatalf("seed=%d vec=%d: PredictRowsInto=%v Predict=%v", seed, i, out[i], packed.Predict(v))
		}
	}
}

// FuzzTreeTiers fuzzes the reference/packed/rows/generated-code equivalence
// contract over random models and threshold-adversarial probe vectors.
func FuzzTreeTiers(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint64(seed*17))
	}
	f.Fuzz(func(t *testing.T, seed int64, nvec uint64) {
		checkTreeTiers(t, seed, nvec)
	})
}

// TestTreeTiersMany is the deterministic property-test mode of the same
// harness.
func TestTreeTiersMany(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		checkTreeTiers(t, seed, uint64(seed))
	}
}
