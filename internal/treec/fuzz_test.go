package treec

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"t3/internal/gbdt"
	"t3/internal/par"
)

// edgeValues are the float64s a sorted-threshold evaluator can get wrong as
// inputs: both zeros, both infinities, magnitudes beyond float32 and at the
// end of float64, float64 and float32 subnormals, and NaN (last, so that a
// caller can leave it out).
var edgeValues = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	1e39, -1e39, math.MaxFloat64, -math.MaxFloat64,
	5e-324, -5e-324, 1e-45, -1e-45,
	math.NaN(),
}

// edgeThresholds are their float32 counterparts as thresholds, one for one:
// both zeros, both infinities, the largest float32s, the smallest normal and
// the smallest and largest subnormal float32s, and NaN.
var edgeThresholds = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.MaxFloat32, -math.MaxFloat32, 0x1p-126, -0x1p-126,
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 0x1p-126 - 0x1p-149, -(0x1p-126 - 0x1p-149),
	math.NaN(),
}

// genThreshold draws one node's (feature, threshold), always a float32 value:
// mostly a random split, sometimes an edge threshold, sometimes a split the
// model already uses — the same threshold on the same feature in several
// trees (or twice in one), which is a tie in the kernel's sort. zerosAndInfs
// models take their edge thresholds from ±0 and ±Inf only, so those tie more
// often.
func genThreshold(rng *rand.Rand, nFeatures int, zerosAndInfs bool, used *[]gbdt.Node) (int32, float64) {
	feat, thr := int32(rng.Intn(nFeatures)), float64(float32(rng.Float64()*20-10))
	switch k := rng.Intn(8); {
	case k == 0 && zerosAndInfs:
		thr = edgeThresholds[rng.Intn(4)]
	case k == 0:
		thr = edgeThresholds[rng.Intn(len(edgeThresholds))]
	case k == 1 && len(*used) > 0:
		n := (*used)[rng.Intn(len(*used))]
		return n.Feature, n.Threshold
	}
	*used = append(*used, gbdt.Node{Feature: feat, Threshold: thr})
	return feat, thr
}

// genTree builds a random regression tree of at most 2^maxDepth leaves; about
// a fifth are single-leaf (constant) trees, which Pack folds into the base
// score.
func genTree(rng *rand.Rand, nFeatures, maxDepth int, zerosAndInfs bool, used *[]gbdt.Node) gbdt.Tree {
	if rng.Intn(5) == 0 {
		return gbdt.Tree{Leaves: []float64{rng.Float64()*4 - 2}}
	}
	var t gbdt.Tree
	var build func(depth int) int32
	build = func(depth int) int32 {
		if depth >= maxDepth || (depth > 0 && rng.Intn(maxDepth) == 0) {
			t.Leaves = append(t.Leaves, rng.Float64()*4-2)
			return ^int32(len(t.Leaves) - 1)
		}
		idx := int32(len(t.Nodes))
		t.Nodes = append(t.Nodes, gbdt.Node{})
		var n gbdt.Node
		n.Feature, n.Threshold = genThreshold(rng, nFeatures, zerosAndInfs, used)
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

// genVectors produces random probe vectors, an eighth of their values edge
// values, plus adversarial ones pinned at and around the model's thresholds:
// the threshold itself and its float64 and float32 neighbours — the boundary
// inputs of the v <= t comparison and of the kernel's sorted scan.
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
			if rng.Intn(8) == 0 {
				v[j] = edgeValues[rng.Intn(len(edgeValues))]
			}
		}
		if len(nodes) > 0 && i%2 == 0 {
			nd := nodes[rng.Intn(len(nodes))]
			t, t32 := nd.Threshold, float32(nd.Threshold)
			probes := []float64{
				t,
				math.Nextafter(t, math.Inf(-1)),
				math.Nextafter(t, math.Inf(1)),
				float64(math.Nextafter32(t32, float32(math.Inf(-1)))),
				float64(math.Nextafter32(t32, float32(math.Inf(1)))),
			}
			v[nd.Feature] = probes[rng.Intn(len(probes))]
		}
		vs = append(vs, v)
	}
	return vs
}

// shapeBatch turns the probe vectors into the batches the block kernel splits
// differently, by the bits of nvec above the ones genModel reads. Bit 7:
// near-duplicates — every row becomes vs[0] with one to three features kept
// from its own draw, so the rows of a block fail almost the same prefixes
// (min k > 0) and the shared bitvector carries most nodes. Bits 8-9: one row,
// anywhere, is all NaN, all -Inf or all +Inf, which fails every list to its
// end or fails nothing, so in its block min k is the whole list or zero.
func shapeBatch(rng *rand.Rand, vs [][]float64, nvec uint64) {
	if nvec&128 != 0 {
		for _, v := range vs[1:] {
			drawn := slices.Clone(v)
			copy(v, vs[0])
			for c := 1 + rng.Intn(3); c > 0; c-- {
				j := rng.Intn(len(v))
				v[j] = drawn[j]
			}
		}
	}
	if kind := nvec >> 8 & 3; kind != 0 {
		v := vs[rng.Intn(len(vs))]
		for j := range v {
			v[j] = []float64{math.NaN(), math.Inf(-1), math.Inf(1)}[kind-1]
		}
	}
}

// genModel draws the model of one fuzz input: 1-6 trees, or up to three
// kernel blocks of them when nvec has bit 6 set; up to 16 leaves a tree, up
// to 64 (a full bitvector), or up to 128, where one tree past 64 sends the
// whole ensemble to the walker. A quarter of the models take their edge
// thresholds from ±0 and ±Inf only.
func genModel(rng *rand.Rand, nvec uint64) *gbdt.Model {
	nFeatures := 1 + rng.Intn(8)
	nTrees := 1 + rng.Intn(6)
	if nvec&64 != 0 {
		nTrees += rng.Intn(700)
	}
	maxDepth := []int{4, 4, 6, 7}[rng.Intn(4)]
	zerosAndInfs := rng.Intn(4) == 0
	m := &gbdt.Model{BaseScore: rng.Float64()*2 - 1, NumFeatures: nFeatures}
	var used []gbdt.Node
	for i := 0; i < nTrees; i++ {
		m.Trees = append(m.Trees, genTree(rng, nFeatures, maxDepth, zerosAndInfs, &used))
	}
	return m
}

// checkTreeTiers asserts the equivalence contract for one model: the
// interpreter reference, Packed.Predict and PredictRowsInto give the same bits
// on every probe vector.
func checkTreeTiers(t *testing.T, seed int64, nvec uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := genModel(rng, nvec)
	nFeatures := m.NumFeatures
	packed := Pack(m)

	vs := genVectors(rng, m, 4+int(nvec%64))
	shapeBatch(rng, vs, nvec)
	for vi, v := range vs {
		if ref, pp := refFoldPredict(m, v), packed.Predict(v); math.Float64bits(pp) != math.Float64bits(ref) {
			t.Fatalf("seed=%d vec=%d: reference=%v packed=%v v=%v", seed, vi, ref, pp, v)
		}
	}

	// The rows kernel is bit-identical to the scalar walk, row for row: the 4
	// to 67 vectors as they are, serially (full blocks of eight, then a
	// narrower block or the last rows one by one), then repeated until the
	// batch is long enough to be split across a pool.
	want := make([]float64, len(vs))
	rows := make([]float64, 0, len(vs)*nFeatures)
	for i, v := range vs {
		want[i] = packed.Predict(v)
		rows = append(rows, v...)
	}
	check := func(pool *par.Pool) {
		out := make([]float64, len(want))
		packed.PredictRowsInto(rows, nFeatures, out, &Fan{Pool: pool})
		for i := range out {
			if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
				t.Fatalf("seed=%d rows=%d vec=%d workers=%d: PredictRowsInto=%v Predict=%v", seed, len(out), i%len(vs), pool.Workers(), out[i], want[i])
			}
		}
	}
	check(nil)
	for len(want) <= 2*rowsPerTask {
		want = append(want, want[:len(vs)]...)
		rows = append(rows, rows[:len(vs)*nFeatures]...)
	}
	check(nil)
	check(par.Sized(3))

	checkStarts(t, rng, seed, m, packed, vs)
}

// checkStarts holds the start form to the same contract: PredictRowsFrom
// over rows that equal a base vector outside a random feature set, each
// starting from its base's start, gives Predict's and the interpreter's bits.
// The set is empty (every row is its base, all work in the start), every
// feature (the starts are all ones) or a random subset; there are one to four
// bases, edge values planted on both sides of the set; rows take their bases
// in runs or at random, so one block of eight holds one start or several. The
// batch is scored whole, in its first one to eleven rows (tails of one to
// three rows and narrow blocks), and repeated past two pool chunks, serially
// and on three workers.
func checkStarts(t *testing.T, rng *rand.Rand, seed int64, m *gbdt.Model, packed *Packed, vs [][]float64) {
	t.Helper()
	nf := m.NumFeatures
	in := make([]bool, nf)
	var set []int
	mode := rng.Intn(6) // 0: the empty set, 1: every feature, else a random one
	for f := range in {
		if mode == 1 || mode > 1 && rng.Intn(2) == 0 {
			in[f], set = true, append(set, f)
		}
	}
	plant := func(v []float64, inSet bool) {
		for c := rng.Intn(3); c > 0; c-- {
			if f := rng.Intn(nf); in[f] == inSet {
				v[f] = edgeValues[rng.Intn(len(edgeValues))]
			}
		}
	}
	s := packed.NewStarts(set)
	bases := make([][]float64, 1+rng.Intn(4))
	for i := range bases {
		bases[i] = slices.Clone(vs[rng.Intn(len(vs))])
		plant(bases[i], false)
		if got := s.Add(bases[i]); got != int32(i) {
			t.Fatalf("seed=%d: Add returned start %d, want %d", seed, got, i)
		}
	}

	n := len(vs)
	rows := make([]float64, 0, n*nf)
	start := make([]int32, n)
	runs := rng.Intn(2) == 0
	for i, v := range vs {
		if !runs || i == 0 || rng.Intn(6) == 0 {
			start[i] = int32(rng.Intn(len(bases)))
		} else {
			start[i] = start[i-1]
		}
		row := slices.Clone(bases[start[i]])
		for _, f := range set {
			row[f] = v[f]
		}
		plant(row, true)
		rows = append(rows, row...)
	}
	check := func(n int, pool *par.Pool) {
		out := make([]float64, n)
		packed.PredictRowsFrom(rows[:n*nf], nf, s, start[:n], out, &Fan{Pool: pool})
		for i := range out {
			v := rows[i*nf : (i+1)*nf]
			want, ref := packed.Predict(v), refFoldPredict(m, v)
			if math.Float64bits(out[i]) != math.Float64bits(want) || math.Float64bits(out[i]) != math.Float64bits(ref) {
				t.Fatalf("seed=%d set=%v rows=%d row=%d start=%d workers=%d: PredictRowsFrom=%v Predict=%v interpreter=%v v=%v",
					seed, set, n, i, start[i], pool.Workers(), out[i], want, ref, v)
			}
		}
	}
	check(n, nil)
	for k := 1; k <= min(11, n-1); k++ {
		check(k, nil)
	}
	if w := packed.MaskCounts(rows, nf, n, s); len(set) == 0 && w != (Work{}) {
		t.Fatalf("seed=%d: no feature in the set, but the rows' work is %+v", seed, w)
	}
	if len(set) == nf {
		if w, all := packed.MaskCounts(rows, nf, n, s), packed.MaskCounts(rows, nf, n, nil); w != all {
			t.Fatalf("seed=%d: every feature in the set, work %+v, PredictRowsInto's %+v", seed, w, all)
		}
	}
	for len(start) <= 2*rowsPerTask {
		rows = append(rows, rows[:n*nf]...)
		start = append(start, start[:n]...)
	}
	check(len(start), nil)
	check(len(start), par.Sized(3))
}

// FuzzTreeTiers fuzzes the reference/packed/rows equivalence contract over
// random models and threshold-adversarial probe vectors, in both of the rows
// kernel's forms: from all leaves (PredictRowsInto) and from starts
// (PredictRowsFrom, checkStarts). The named corpus
// files under testdata/fuzz pin the shapes the bitvector kernel has limits on: one, exactly-full and three blocks of trees, a 63-leaf tree,
// an oversized tree (walker fallback), and NaN, ±Inf and ±0 thresholds tied on
// one feature; and the batches its block split turns on (shapeBatch):
// near-duplicate rows, alone and over three blocks of trees, and a uniform
// batch with one all-NaN, all -Inf or all +Inf row.
func FuzzTreeTiers(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint64(seed*17))
	}
	f.Fuzz(func(t *testing.T, seed int64, nvec uint64) {
		checkTreeTiers(t, seed, nvec)
	})
}

// TestTreeTiersMany is the deterministic property-test mode of the same
// harness: the low bits of nvec (vector count, several blocks of trees) as
// they come, every combination of shapeBatch's three bits in turn.
func TestTreeTiersMany(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		checkTreeTiers(t, seed, uint64(seed)&127|uint64(seed%8)<<7)
	}
}
