// Package wire is the compact binary plan encoding and length-prefixed
// framing spoken by t3serve's high-throughput endpoints (/predict.bin and
// the raw TCP listener).
//
// T3 predicts from plan annotations only — operator types, cardinalities,
// tuple widths, predicate classes, selectivities — so the wire form carries
// exactly those, byte-packed, and nothing else: no column names, no table
// names, no JSON. A typical TPC-H plan is ~100–300 bytes on the wire versus
// several KiB of JSON, and decoding is a single arena-backed pass with zero
// steady-state allocations (see Decoder).
//
// # Frame layout (version 1)
//
// Request frame:
//
//	offset size  field
//	0      2     magic "T3"
//	2      1     version (1)
//	3      1     card mode: 0 = true cards, 1 = estimated cards
//	4      4     payload length, little-endian uint32
//	8      n     payload: the encoded plan (see below)
//
// Response frame:
//
//	offset size  field
//	0      2     magic "T3"
//	2      1     version (1)
//	3      1     status: 0 = ok, 1 = bad request, 2 = server error
//	4      4     payload length, little-endian uint32
//	8      n     ok: 8-byte little-endian uint64 predicted nanoseconds
//	             error: UTF-8 message
//
// # Plan payload
//
// Nodes are serialized pre-order (node, left, right). Each node is:
//
//	op      1 byte   plan.OpType
//	flags   1 byte   bit0 = has left child, bit1 = has right child,
//	                 bit2 = has explicit columns
//	cols    uvarint count + 1 byte storage.Type per column (iff bit2)
//	card    8+8 bytes little-endian float64 (true, est)
//	scan    TableScan only: 8-byte float64 scan_card, uvarint predicate
//	        count, then per predicate 1 byte expr.Class + 8+8 bytes
//	        float64 selectivities (true, est)
//	build   HashJoin only: uvarint build width in bytes
//
// Like planio, decoded plans are featurizable and predictable but not
// executable: scans carry no bound tables and predicates are class-only
// stubs.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"t3/internal/engine/expr"
	"t3/internal/engine/plan"
	"t3/internal/engine/storage"
)

// Version is the current wire protocol version.
const Version = 1

// HeaderSize is the fixed size of request and response frame headers.
const HeaderSize = 8

// MaxPayload bounds the payload length a decoder accepts (1 MiB — real
// plans are a few hundred bytes; this guards the pre-read allocation).
const MaxPayload = 1 << 20

// Response status codes.
const (
	StatusOK         = 0
	StatusBadRequest = 1
	StatusError      = 2
)

var (
	// ErrHeader reports a malformed or foreign frame header.
	ErrHeader = errors.New("wire: bad frame header")
	// ErrVersion reports an unsupported protocol version.
	ErrVersion = errors.New("wire: unsupported version")
	// ErrTooLarge reports a payload length above MaxPayload.
	ErrTooLarge = errors.New("wire: payload too large")
	// ErrTruncated reports a payload shorter than its encoding requires.
	ErrTruncated = errors.New("wire: truncated payload")
)

// magic0, magic1 are the frame magic bytes.
const magic0, magic1 = 'T', '3'

// Node flag bits.
const (
	flagLeft  = 1 << 0
	flagRight = 1 << 1
	flagCols  = 1 << 2
)

// PutHeader writes a request frame header for a payload of the given length
// into dst, which must be at least HeaderSize bytes.
func PutHeader(dst []byte, mode plan.CardMode, payloadLen int) {
	dst[0], dst[1], dst[2] = magic0, magic1, Version
	dst[3] = byte(mode)
	binary.LittleEndian.PutUint32(dst[4:8], uint32(payloadLen))
}

// ParseHeader validates a request frame header and returns the card mode
// and payload length.
func ParseHeader(b []byte) (plan.CardMode, int, error) {
	if len(b) < HeaderSize || b[0] != magic0 || b[1] != magic1 {
		return 0, 0, ErrHeader
	}
	if b[2] != Version {
		return 0, 0, ErrVersion
	}
	if b[3] > 1 {
		return 0, 0, fmt.Errorf("wire: bad card mode %d", b[3])
	}
	n := binary.LittleEndian.Uint32(b[4:8])
	if n > MaxPayload {
		return 0, 0, ErrTooLarge
	}
	return plan.CardMode(b[3]), int(n), nil
}

// AppendFrame appends a complete request frame (header + encoded plan) to
// dst and returns the extended slice.
func AppendFrame(dst []byte, n *plan.Node, mode plan.CardMode) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, HeaderSize)...)
	dst = AppendPlan(dst, n)
	PutHeader(dst[start:], mode, len(dst)-start-HeaderSize)
	return dst
}

// AppendResponse appends an ok response frame carrying the predicted
// nanoseconds.
func AppendResponse(dst []byte, predictedNs int64) []byte {
	dst = append(dst, magic0, magic1, Version, StatusOK, 8, 0, 0, 0)
	var v [8]byte
	binary.LittleEndian.PutUint64(v[:], uint64(predictedNs))
	return append(dst, v[:]...)
}

// AppendErrorResponse appends an error response frame with the given status
// and message.
func AppendErrorResponse(dst []byte, status byte, msg string) []byte {
	dst = append(dst, magic0, magic1, Version, status, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(dst[len(dst)-4:], uint32(len(msg)))
	return append(dst, msg...)
}

// ParseResponse parses a complete response frame, returning the predicted
// nanoseconds or the server-reported error.
func ParseResponse(b []byte) (int64, error) {
	if len(b) < HeaderSize || b[0] != magic0 || b[1] != magic1 {
		return 0, ErrHeader
	}
	if b[2] != Version {
		return 0, ErrVersion
	}
	n := int(binary.LittleEndian.Uint32(b[4:8]))
	if len(b) < HeaderSize+n {
		return 0, ErrTruncated
	}
	body := b[HeaderSize : HeaderSize+n]
	if b[3] != StatusOK {
		return 0, fmt.Errorf("wire: server status %d: %s", b[3], body)
	}
	if n != 8 {
		return 0, ErrTruncated
	}
	return int64(binary.LittleEndian.Uint64(body)), nil
}

// AppendPlan appends the binary encoding of the plan to dst and returns the
// extended slice. It allocates only when growing dst.
func AppendPlan(dst []byte, n *plan.Node) []byte {
	if n == nil {
		return dst
	}
	flags := byte(0)
	if n.Left != nil {
		flags |= flagLeft
	}
	if n.Right != nil {
		flags |= flagRight
	}
	// Pass-through operators inherit the left child's schema; encoding it
	// again would only bloat the frame. Emit columns when there is no child
	// to inherit from or the schema genuinely differs (breakers, maps).
	explicitCols := n.Left == nil || !sameSchema(n.Schema, n.Left.Schema)
	if explicitCols {
		flags |= flagCols
	}
	dst = append(dst, byte(n.Op), flags)
	if explicitCols {
		dst = appendUvarint(dst, uint64(len(n.Schema)))
		for _, c := range n.Schema {
			dst = append(dst, byte(c.Kind))
		}
	}
	dst = appendF64(dst, n.OutCard.True)
	dst = appendF64(dst, n.OutCard.Est)
	if n.Op == plan.TableScanOp {
		dst = appendF64(dst, n.ScanCard)
		dst = appendUvarint(dst, uint64(len(n.Predicates)))
		for i, p := range n.Predicates {
			dst = append(dst, byte(p.Class()))
			dst = appendF64(dst, n.PredSel[i].True)
			dst = appendF64(dst, n.PredSel[i].Est)
		}
	}
	if n.Op == plan.HashJoinOp {
		dst = appendUvarint(dst, uint64(n.HashTupleWidth()))
	}
	dst = AppendPlan(dst, n.Left)
	dst = AppendPlan(dst, n.Right)
	return dst
}

func sameSchema(a, b []plan.ColMeta) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind {
			return false
		}
	}
	return true
}

func appendF64(dst []byte, v float64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	return append(dst, b[:]...)
}

func appendUvarint(dst []byte, v uint64) []byte {
	var b [binary.MaxVarintLen64]byte
	return append(dst, b[:binary.PutUvarint(b[:], v)]...)
}

// stubPred is a non-executable predicate carrying only its class, like
// planio's JSON-decoded predicates.
type stubPred struct{ class expr.Class }

func (s *stubPred) Kind() storage.Type { return storage.Int64 }
func (s *stubPred) Class() expr.Class  { return s.class }
func (s *stubPred) String() string     { return "<" + s.class.String() + ">" }
func (s *stubPred) EvalBool(*expr.Batch, []bool) int {
	panic("wire: decoded plans are not executable")
}

// stubPreds pre-boxes one predicate stub per class so decoding never
// allocates an interface value.
var stubPreds = func() [expr.NumClasses]expr.BoolExpr {
	var a [expr.NumClasses]expr.BoolExpr
	for c := range a {
		a[c] = &stubPred{class: expr.Class(c)}
	}
	return a
}()

// keyZero is the shared synthesized key list of decoded hash joins (the
// explicit BuildWidth override carries the real materialized width).
var keyZero = []int{0}

// nodeSlabSize is the node-arena slab size. Slabs give decoded nodes stable
// addresses (Left/Right pointers) while still amortizing allocation.
const nodeSlabSize = 32

// Decoder decodes binary plan payloads over a reusable arena. After a few
// decodes the arena capacities stabilize and decoding stops allocating.
// Decoded plans alias the arena: Decode keeps one plan at a time, Reset and
// DecodeNext keep every plan of a batch until the next Reset. A Decoder must
// not be used concurrently; keep one per connection.
type Decoder struct {
	slabs []*[nodeSlabSize]plan.Node
	used  int
	cols  []plan.ColMeta
	preds []expr.BoolExpr
	sels  []plan.Card
}

// next hands out the next arena node, zeroed.
func (d *Decoder) next() *plan.Node {
	if d.used == len(d.slabs)*nodeSlabSize {
		d.slabs = append(d.slabs, new([nodeSlabSize]plan.Node))
	}
	n := &d.slabs[d.used/nodeSlabSize][d.used%nodeSlabSize]
	d.used++
	*n = plan.Node{}
	return n
}

// Reset empties the arena, invalidating every plan decoded from it.
func (d *Decoder) Reset() {
	d.used = 0
	d.cols = d.cols[:0]
	d.preds = d.preds[:0]
	d.sels = d.sels[:0]
}

// Decode parses one plan payload. The result aliases the decoder's arena
// and is valid only until the next Decode or Reset.
func (d *Decoder) Decode(payload []byte) (*plan.Node, error) {
	d.Reset()
	return d.DecodeNext(payload)
}

// DecodeNext parses one more plan payload into the arena, beside the plans
// decoded since the last Reset, which stay valid: nodes live in slabs that
// never move, and a column, predicate or selectivity list that outgrows its
// backing array leaves the earlier plans' views on the old one. A payload
// that fails to decode takes no arena space.
func (d *Decoder) DecodeNext(payload []byte) (*plan.Node, error) {
	used, cols, preds, sels := d.used, len(d.cols), len(d.preds), len(d.sels)
	n, rest, err := d.decodeNode(payload)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("wire: %d trailing bytes after plan", len(rest))
	}
	if err != nil {
		d.used, d.cols, d.preds, d.sels = used, d.cols[:cols], d.preds[:preds], d.sels[:sels]
		return nil, err
	}
	return n, nil
}

func (d *Decoder) decodeNode(b []byte) (*plan.Node, []byte, error) {
	if len(b) < 2 {
		return nil, nil, ErrTruncated
	}
	op, flags := plan.OpType(b[0]), b[1]
	if int(op) >= plan.NumOpTypes {
		return nil, nil, fmt.Errorf("wire: unknown operator %d", op)
	}
	b = b[2:]
	n := d.next()
	n.Op = op

	var err error
	if flags&flagCols != 0 {
		var ncols uint64
		if ncols, b, err = readUvarint(b); err != nil {
			return nil, nil, err
		}
		if ncols > uint64(len(b)) {
			return nil, nil, ErrTruncated
		}
		start := len(d.cols)
		for i := 0; i < int(ncols); i++ {
			k := storage.Type(b[i])
			if k > storage.String {
				return nil, nil, fmt.Errorf("wire: unknown column type %d", b[i])
			}
			d.cols = append(d.cols, plan.ColMeta{Kind: k})
		}
		b = b[ncols:]
		n.Schema = d.cols[start:len(d.cols):len(d.cols)]
	}
	if n.OutCard.True, b, err = readF64(b); err != nil {
		return nil, nil, err
	}
	if n.OutCard.Est, b, err = readF64(b); err != nil {
		return nil, nil, err
	}

	switch op {
	case plan.TableScanOp:
		if n.ScanCard, b, err = readF64(b); err != nil {
			return nil, nil, err
		}
		var npreds uint64
		if npreds, b, err = readUvarint(b); err != nil {
			return nil, nil, err
		}
		if npreds > uint64(len(b))/17 { // 1 class byte + two float64s each
			return nil, nil, ErrTruncated
		}
		pstart, sstart := len(d.preds), len(d.sels)
		for i := 0; i < int(npreds); i++ {
			class := b[0]
			if int(class) >= expr.NumClasses {
				return nil, nil, fmt.Errorf("wire: unknown predicate class %d", class)
			}
			b = b[1:]
			var sel plan.Card
			if sel.True, b, err = readF64(b); err != nil {
				return nil, nil, err
			}
			if sel.Est, b, err = readF64(b); err != nil {
				return nil, nil, err
			}
			d.preds = append(d.preds, stubPreds[class])
			d.sels = append(d.sels, sel)
		}
		n.Predicates = d.preds[pstart:len(d.preds):len(d.preds)]
		n.PredSel = d.sels[sstart:len(d.sels):len(d.sels)]
	case plan.HashJoinOp:
		var w uint64
		if w, b, err = readUvarint(b); err != nil {
			return nil, nil, err
		}
		n.BuildKeys, n.ProbeKeys = keyZero, keyZero
		n.BuildWidth = int(w)
	}

	if flags&flagLeft != 0 {
		if n.Left, b, err = d.decodeNode(b); err != nil {
			return nil, nil, err
		}
	}
	if flags&flagRight != 0 {
		if n.Right, b, err = d.decodeNode(b); err != nil {
			return nil, nil, err
		}
	}

	// Structural checks mirroring planio.Decode.
	switch op {
	case plan.HashJoinOp:
		if n.Left == nil || n.Right == nil {
			return nil, nil, errors.New("wire: HashJoin requires two children")
		}
		if len(n.Left.Schema) == 0 {
			return nil, nil, errors.New("wire: HashJoin build side has no columns")
		}
	case plan.TableScanOp:
		if len(n.Schema) == 0 {
			return nil, nil, errors.New("wire: TableScan without columns")
		}
		if n.Left != nil || n.Right != nil {
			return nil, nil, errors.New("wire: TableScan takes no input")
		}
	default:
		if n.Left == nil {
			return nil, nil, fmt.Errorf("wire: %s requires an input", op)
		}
	}
	// Decided by the flag, not by whether the column list came out nil: an
	// explicit empty list is nil only in a decoder that has never seen a
	// column, and a plan must not decode differently warm and cold.
	if flags&flagCols == 0 {
		n.Schema = n.Left.Schema
	}
	return n, b, nil
}

func readF64(b []byte) (float64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, ErrTruncated
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:], nil
}

func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, ErrTruncated
	}
	return v, b[n:], nil
}
