package treec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary serialization of the Packed tier, used by the model registry
// (internal/registry) to store the compiled evaluator alongside the trained
// ensemble. The encoding is versioned, fixed-width little-endian, and
// deterministic: encoding Pack(m) for the same model always yields the same
// bytes, which is what lets registry artifacts be compared and checksummed
// bit-for-bit.

// PackedFormatVersion is the packed-tier encoding version. Bump it on any
// layout change; DecodePacked rejects versions it does not know.
const PackedFormatVersion = 1

// AppendPacked appends the versioned binary encoding of p to dst and
// returns the extended slice.
//
// Layout (all little-endian):
//
//	u32 format version | u32 numFeatures | u8 exact
//	u32 nNodes  | nNodes × (f32 thr, u16 feature, i32 left, i32 right)
//	u32 nRoots  | nRoots × i32
//	u32 nLeaves | nLeaves × f64
//	f64 base
func AppendPacked(dst []byte, p *Packed) []byte {
	dst = appendU32(dst, PackedFormatVersion)
	dst = appendU32(dst, uint32(p.NumFeatures))
	if p.Exact {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = appendU32(dst, uint32(len(p.Nodes)))
	for i := range p.Nodes {
		n := &p.Nodes[i]
		dst = appendU32(dst, math.Float32bits(n.Thr))
		dst = binary.LittleEndian.AppendUint16(dst, n.Feature)
		dst = appendU32(dst, uint32(n.Left))
		dst = appendU32(dst, uint32(n.Right))
	}
	dst = appendU32(dst, uint32(len(p.Roots)))
	for _, r := range p.Roots {
		dst = appendU32(dst, uint32(r))
	}
	dst = appendU32(dst, uint32(len(p.Leaves)))
	for _, v := range p.Leaves {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Base))
	return dst
}

// DecodePacked parses an AppendPacked encoding. The returned Packed shares
// nothing with b. Truncated or over-long input is an error — the encoding
// is self-delimiting, so trailing garbage means corruption — and so is any
// index the walkers would otherwise have to trust (see validate): a decoded
// Packed terminates and stays in bounds on every vector of NumFeatures values.
func DecodePacked(b []byte) (*Packed, error) {
	d := &packedReader{b: b}
	ver := d.u32()
	if d.err == nil && ver != PackedFormatVersion {
		return nil, fmt.Errorf("treec: packed format version %d, want %d", ver, PackedFormatVersion)
	}
	p := &Packed{}
	p.NumFeatures = int(d.u32())
	p.Exact = d.u8() != 0
	nNodes := int(d.u32())
	if d.err == nil && nNodes > d.remaining()/14 {
		return nil, fmt.Errorf("treec: packed node count %d exceeds payload", nNodes)
	}
	p.Nodes = make([]PackedNode, nNodes)
	for i := range p.Nodes {
		n := &p.Nodes[i]
		n.Thr = math.Float32frombits(d.u32())
		n.Feature = d.u16()
		n.Left = int32(d.u32())
		n.Right = int32(d.u32())
	}
	nRoots := int(d.u32())
	if d.err == nil && nRoots > d.remaining()/4 {
		return nil, fmt.Errorf("treec: packed root count %d exceeds payload", nRoots)
	}
	p.Roots = make([]int32, nRoots)
	for i := range p.Roots {
		p.Roots[i] = int32(d.u32())
	}
	nLeaves := int(d.u32())
	if d.err == nil && nLeaves > d.remaining()/8 {
		return nil, fmt.Errorf("treec: packed leaf count %d exceeds payload", nLeaves)
	}
	p.Leaves = make([]float64, nLeaves)
	for i := range p.Leaves {
		p.Leaves[i] = math.Float64frombits(d.u64())
	}
	p.Base = math.Float64frombits(d.u64())
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(b) {
		return nil, fmt.Errorf("treec: %d trailing bytes after packed encoding", len(b)-d.off)
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// validate checks the structure Pack produces and the evaluators rely on
// without testing: roots strictly ascending from 0, so every tree owns the
// node block up to the next root; every feature id below NumFeatures; every
// leaf reference inside Leaves; every child inside its own tree's block, past
// its parent (the breadth-first order that bounds every walk and that
// buildRowsLayout computes depths from), and every non-root node under
// exactly one parent (a second parent would let that depth come out short, an
// orphan would break the terminals <= interior+1 bound its uint8 offsets
// assume).
func (p *Packed) validate() error {
	if p.NumFeatures > math.MaxUint16+1 {
		return fmt.Errorf("treec: packed feature count %d exceeds uint16 feature ids", p.NumFeatures)
	}
	if len(p.Nodes) > 0 && len(p.Roots) == 0 {
		return fmt.Errorf("treec: %d packed nodes but no roots", len(p.Nodes))
	}
	for ti, root := range p.Roots {
		if (ti == 0 && root != 0) || (ti > 0 && root <= p.Roots[ti-1]) || int(root) >= len(p.Nodes) {
			return fmt.Errorf("treec: packed root %d of tree %d not strictly ascending from 0 within %d nodes", root, ti, len(p.Nodes))
		}
	}
	hasParent := make([]bool, len(p.Nodes))
	for ti, root := range p.Roots {
		end := p.treeEnd(ti)
		for i := root; i < end; i++ {
			n := &p.Nodes[i]
			// Children lie past their parent, so by node i every possible
			// parent of i has been seen.
			if i > root && !hasParent[i] {
				return fmt.Errorf("treec: packed node %d of tree %d has no parent", i, ti)
			}
			if int(n.Feature) >= p.NumFeatures {
				return fmt.Errorf("treec: packed node %d tests feature %d of %d", i, n.Feature, p.NumFeatures)
			}
			for _, c := range [2]int32{n.Left, n.Right} {
				switch {
				case c < 0:
					if int(^c) >= len(p.Leaves) {
						return fmt.Errorf("treec: packed node %d references leaf %d of %d", i, ^c, len(p.Leaves))
					}
				case c <= i || c >= end:
					return fmt.Errorf("treec: packed node %d has child %d outside (%d, %d)", i, c, i, end)
				case hasParent[c]:
					return fmt.Errorf("treec: packed node %d has two parents", c)
				default:
					hasParent[c] = true
				}
			}
		}
	}
	return nil
}

func appendU32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

// packedReader is a bounds-checked little-endian cursor; the first overrun
// latches an error and every later read returns zero.
type packedReader struct {
	b   []byte
	off int
	err error
}

func (d *packedReader) remaining() int { return len(d.b) - d.off }

func (d *packedReader) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.remaining() < n {
		d.err = fmt.Errorf("treec: truncated packed encoding at byte %d", d.off)
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *packedReader) u8() uint8 {
	if s := d.take(1); s != nil {
		return s[0]
	}
	return 0
}

func (d *packedReader) u16() uint16 {
	if s := d.take(2); s != nil {
		return binary.LittleEndian.Uint16(s)
	}
	return 0
}

func (d *packedReader) u32() uint32 {
	if s := d.take(4); s != nil {
		return binary.LittleEndian.Uint32(s)
	}
	return 0
}

func (d *packedReader) u64() uint64 {
	if s := d.take(8); s != nil {
		return binary.LittleEndian.Uint64(s)
	}
	return 0
}
