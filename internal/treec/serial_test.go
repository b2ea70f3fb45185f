package treec

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"t3/internal/gbdt"
)

// serialModel trains a small deterministic ensemble for codec tests.
func serialModel(t *testing.T) *gbdt.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	const n, f = 400, 6
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		v := make([]float64, f)
		for j := range v {
			v[j] = rng.Float64() * 10
		}
		xs[i] = v
		ys[i] = v[0]*2 + v[3] - v[5]*0.5 + rng.Float64()*0.1
	}
	p := gbdt.DefaultParams()
	p.NumRounds = 12
	p.Seed = 5
	m, _, err := gbdt.Train(p, xs, ys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPackedCodecRoundTrip(t *testing.T) {
	m := serialModel(t)
	p := Pack(m)
	enc := AppendPacked(nil, p)
	dec, err := DecodePacked(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.NumFeatures != p.NumFeatures || dec.Exact != p.Exact || dec.Base != p.Base {
		t.Fatalf("header mismatch: got {%d %v %v}, want {%d %v %v}",
			dec.NumFeatures, dec.Exact, dec.Base, p.NumFeatures, p.Exact, p.Base)
	}
	if len(dec.Nodes) != len(p.Nodes) || len(dec.Roots) != len(p.Roots) || len(dec.Leaves) != len(p.Leaves) {
		t.Fatalf("shape mismatch: %d/%d/%d vs %d/%d/%d",
			len(dec.Nodes), len(dec.Roots), len(dec.Leaves), len(p.Nodes), len(p.Roots), len(p.Leaves))
	}

	// Re-encoding the decoded tier must be byte-identical: the codec is
	// canonical, which is what registry checksums rely on.
	if !bytes.Equal(AppendPacked(nil, dec), enc) {
		t.Fatal("re-encoded packed tier differs from original encoding")
	}

	// And it must predict bit-identically to the original.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		v := make([]float64, p.NumFeatures)
		for j := range v {
			v[j] = rng.Float64() * 10
		}
		if got, want := dec.Predict(v), p.Predict(v); got != want {
			t.Fatalf("vector %d: decoded tier predicts %v, original %v", i, got, want)
		}
	}
}

func TestPackedCodecDeterministic(t *testing.T) {
	m := serialModel(t)
	a := AppendPacked(nil, Pack(m))
	b := AppendPacked(nil, Pack(m))
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of the same model differ")
	}
}

func TestPackedCodecRejectsCorruption(t *testing.T) {
	enc := AppendPacked(nil, Pack(serialModel(t)))

	// Every truncation point must be rejected, never panic.
	for _, cut := range []int{0, 1, 4, 8, 9, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodePacked(enc[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", cut)
		}
	}

	// Trailing garbage is corruption, not slack.
	if _, err := DecodePacked(append(append([]byte(nil), enc...), 0xAB)); err == nil {
		t.Fatal("trailing byte decoded without error")
	}

	// A wrong format version is refused outright.
	bad := append([]byte(nil), enc...)
	bad[0] = 0xFF
	if _, err := DecodePacked(bad); err == nil {
		t.Fatal("bogus format version decoded without error")
	}

	// Hostile counts must not cause huge allocations or panics.
	hostile := append([]byte(nil), enc[:9]...)
	hostile = appendU32(hostile, 0xFFFFFFF0) // absurd node count
	if _, err := DecodePacked(hostile); err == nil {
		t.Fatal("hostile node count decoded without error")
	}
}

// clonePacked deep-copies the encoded fields of p.
func clonePacked(p *Packed) *Packed {
	return &Packed{
		Nodes:       append([]PackedNode(nil), p.Nodes...),
		Roots:       append([]int32(nil), p.Roots...),
		Leaves:      append([]float64(nil), p.Leaves...),
		Base:        p.Base,
		NumFeatures: p.NumFeatures,
		Exact:       p.Exact,
	}
}

// TestDecodePackedRejectsBadStructure corrupts one field of a valid packed
// ensemble per case. Each would otherwise be found by a walker — as an index
// panic, a walk that never ends, or a rows-kernel answer that differs from
// Predict — so DecodePacked must refuse all of them.
func TestDecodePackedRejectsBadStructure(t *testing.T) {
	good := Pack(serialModel(t))
	if len(good.Roots) < 3 {
		t.Fatalf("need at least 3 multi-node trees, have %d", len(good.Roots))
	}
	// interior is a node of tree 1 with an interior left child; tree 1 sits
	// between two other trees, so both neighbours' blocks are in range.
	interior := int32(-1)
	for i := good.Roots[1]; i < good.Roots[2]; i++ {
		if good.Nodes[i].Left >= 0 && good.Nodes[i].Right >= 0 {
			interior = i
			break
		}
	}
	if interior < 0 {
		t.Fatal("tree 1 has no node with two interior children")
	}
	cases := []struct {
		name    string
		corrupt func(p *Packed)
	}{
		{"feature == NumFeatures", func(p *Packed) { p.Nodes[interior].Feature = uint16(p.NumFeatures) }},
		{"NumFeatures beyond uint16 ids", func(p *Packed) { p.NumFeatures = math.MaxUint16 + 2 }},
		{"child is its own parent", func(p *Packed) { p.Nodes[interior].Left = interior }},
		{"child before its parent", func(p *Packed) { p.Nodes[interior].Right = p.Roots[1] }},
		{"child in the previous tree", func(p *Packed) { p.Nodes[interior].Left = p.Roots[0] }},
		{"child in the next tree", func(p *Packed) { p.Nodes[interior].Left = p.Roots[2] }},
		{"child beyond all nodes", func(p *Packed) { p.Nodes[interior].Right = int32(len(p.Nodes)) }},
		{"child with two parents", func(p *Packed) { p.Nodes[interior].Left = p.Nodes[interior].Right }},
		{"child with no parent", func(p *Packed) { p.Nodes[interior].Left = ^0 }},
		{"leaf == len(Leaves)", func(p *Packed) { p.Nodes[len(p.Nodes)-1].Left = ^int32(len(p.Leaves)) }},
		{"leaf far out of range", func(p *Packed) { p.Nodes[0].Right = math.MinInt32 }},
		{"first root not 0", func(p *Packed) { p.Roots[0] = 1 }},
		{"roots not ascending", func(p *Packed) { p.Roots[1], p.Roots[2] = p.Roots[2], p.Roots[1] }},
		{"duplicate root", func(p *Packed) { p.Roots[2] = p.Roots[1] }},
		{"root beyond all nodes", func(p *Packed) { p.Roots[len(p.Roots)-1] = int32(len(p.Nodes)) }},
		{"negative root", func(p *Packed) { p.Roots[1] = -1 }},
		{"nodes without roots", func(p *Packed) { p.Roots = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := clonePacked(good)
			tc.corrupt(p)
			if _, err := DecodePacked(AppendPacked(nil, p)); err == nil {
				t.Fatal("decoded without error")
			}
		})
	}
	if _, err := DecodePacked(AppendPacked(nil, clonePacked(good))); err != nil {
		t.Fatalf("uncorrupted clone rejected: %v", err)
	}
}

// TestDecodePackedRejectsOrphans: 127 nodes fit the rows kernel's uint8
// layout only because a connected tree has at most one terminal more than it
// has interior nodes. A root over node 126 plus 125 unreachable nodes holding
// two leaves each has 253 terminals, whose offsets would wrap.
func TestDecodePackedRejectsOrphans(t *testing.T) {
	p := &Packed{NumFeatures: 1, Roots: []int32{0}, Nodes: make([]PackedNode, 127)}
	leaf := func(v float64) int32 {
		p.Leaves = append(p.Leaves, v)
		return ^int32(len(p.Leaves) - 1)
	}
	p.Nodes[0] = PackedNode{Left: 126, Right: leaf(1)}
	for i := 1; i < 127; i++ {
		p.Nodes[i] = PackedNode{Left: leaf(float64(2 * i)), Right: leaf(float64(2*i + 1))}
	}
	if _, err := DecodePacked(AppendPacked(nil, p)); err == nil {
		t.Fatal("decoded a tree with unreachable nodes")
	}
}

// FuzzDecodePacked: any byte string either fails to decode or yields an
// ensemble both entry points evaluate without panicking, to the same bits.
func FuzzDecodePacked(f *testing.F) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		m := randomEnsemble(rng, 1+rng.Intn(4), 1+rng.Intn(5), rng.NormFloat64)
		f.Add(AppendPacked(nil, Pack(m)))
	}
	f.Add(AppendPacked(nil, &Packed{Base: 1.5, NumFeatures: 2}))
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := DecodePacked(b)
		if err != nil {
			return
		}
		const nrows = rowsLanes + 1 // one kernel block and a tail row
		stride := max(p.NumFeatures, 1)
		rows := make([]float64, nrows*stride)
		rng := rand.New(rand.NewSource(int64(len(b))))
		for i := range rows {
			rows[i] = rng.NormFloat64() * 100
		}
		out := make([]float64, nrows)
		p.PredictRowsInto(rows, stride, out, nil)
		for r := range out {
			if want := p.Predict(rows[r*stride : (r+1)*stride]); math.Float64bits(out[r]) != math.Float64bits(want) {
				t.Fatalf("row %d: PredictRowsInto %v != Predict %v", r, out[r], want)
			}
		}
	})
}
