package gbdt

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// The model document is read and written here, without reflection. The
// encoder writes exactly the bytes encoding/json's Marshal writes for a
// *Model, and fails where Marshal fails, on a NaN or infinite float. The
// decoder returns the model encoding/json's Unmarshal returns, bit for bit,
// or an error. It reads everything the encoder writes and refuses everything
// Unmarshal refuses, and also some JSON Unmarshal reads: an unknown,
// case-folded, escaped or repeated key, and null for anything but a slice.
// Model has no MarshalJSON or UnmarshalJSON, so encoding/json remains an
// independent oracle for both in the tests.

// AppendJSON appends the model's JSON document to b. On error it returns b
// as it was.
func (m *Model) AppendJSON(b []byte) ([]byte, error) {
	e := encoder{b: b}
	e.float(`{"base_score":`, m.BaseScore)
	e.list(`,"trees":`, len(m.Trees), m.Trees == nil, func(i int) { e.tree(&m.Trees[i]) })
	e.int(`,"num_features":`, int64(m.NumFeatures))
	if len(m.FeatureNames) > 0 {
		e.list(`,"feature_names":`, len(m.FeatureNames), false, func(i int) { e.string(m.FeatureNames[i]) })
	}
	p := &m.Params
	e.int(`,"params":{"NumRounds":`, int64(p.NumRounds))
	e.int(`,"NumLeaves":`, int64(p.NumLeaves))
	e.float(`,"LearningRate":`, p.LearningRate)
	e.int(`,"MinDataInLeaf":`, int64(p.MinDataInLeaf))
	e.float(`,"Lambda":`, p.Lambda)
	e.int(`,"MaxBins":`, int64(p.MaxBins))
	e.b = append(e.b, `,"Objective":`...)
	e.string(string(p.Objective))
	e.float(`,"ValidationFraction":`, p.ValidationFraction)
	e.int(`,"EarlyStoppingRounds":`, int64(p.EarlyStoppingRounds))
	e.float(`,"FeatureFraction":`, p.FeatureFraction)
	e.float(`,"BaggingFraction":`, p.BaggingFraction)
	e.int(`,"Seed":`, p.Seed)
	e.int(`},"best_iteration":`, int64(m.BestIteration))
	e.b = append(e.b, '}')
	if e.err != nil {
		return b, e.err
	}
	return e.b, nil
}

// encoder appends to b; err holds the first float JSON cannot represent.
type encoder struct {
	b   []byte
	err error
}

func (e *encoder) tree(t *Tree) {
	e.list(`{"nodes":`, len(t.Nodes), t.Nodes == nil, func(i int) {
		n := &t.Nodes[i]
		e.int(`{"f":`, int64(n.Feature))
		e.float(`,"t":`, n.Threshold)
		e.int(`,"l":`, int64(n.Left))
		e.int(`,"r":`, int64(n.Right))
		e.b = append(e.b, '}')
	})
	e.list(`,"leaves":`, len(t.Leaves), t.Leaves == nil, func(i int) { e.float("", t.Leaves[i]) })
	e.b = append(e.b, '}')
}

// list writes key, then null for a nil slice, or the slice's n elements,
// each written by elem, in brackets.
func (e *encoder) list(key string, n int, isNil bool, elem func(i int)) {
	e.b = append(e.b, key...)
	if isNil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '[')
	for i := range n {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		elem(i)
	}
	e.b = append(e.b, ']')
}

func (e *encoder) int(key string, v int64) {
	e.b = strconv.AppendInt(append(e.b, key...), v, 10)
}

// float writes key and f as encoding/json does: the shortest decimal that
// reads back to f, in exponent form below 1e-6 and from 1e21 up, with a
// one-digit negative exponent not padded to two.
func (e *encoder) float(key string, f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(append(e.b, key...), f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

const hexDigits = "0123456789abcdef"

// string writes s quoted as encoding/json does with HTML escaping: <, > and &
// and control bytes as \u00XX (but \b \f \n \r \t), U+2028 and U+2029
// escaped, and each byte of invalid UTF-8 as \ufffd.
func (e *encoder) string(s string) {
	e.b = append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			e.b = append(e.b, s[start:i]...)
			switch c {
			case '"', '\\':
				e.b = append(e.b, '\\', c)
			case '\b':
				e.b = append(e.b, '\\', 'b')
			case '\f':
				e.b = append(e.b, '\\', 'f')
			case '\n':
				e.b = append(e.b, '\\', 'n')
			case '\r':
				e.b = append(e.b, '\\', 'r')
			case '\t':
				e.b = append(e.b, '\\', 't')
			default:
				e.b = append(e.b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			e.b = append(e.b, s[start:i]...)
			e.b = append(e.b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			e.b = append(e.b, s[start:i]...)
			e.b = append(e.b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	e.b = append(e.b, s[start:]...)
	e.b = append(e.b, '"')
}

// DecodeJSON parses a model document: one object, with only whitespace
// around it. It does not validate the model; Load and registry.Decode do.
func DecodeJSON(data []byte) (*Model, error) {
	d := decoder{b: data}
	m := &Model{}
	d.model(m)
	if d.peek() >= 0 {
		d.fail("trailing data")
	}
	if d.err != nil {
		return nil, d.err
	}
	return m, nil
}

// decoder reads b from offset i. The first error sticks and empties b, so
// every method then returns at once and loops end. A tree's nodes and leaves
// are read into nodes and leaves, reused from tree to tree, and copied out at
// their final length.
type decoder struct {
	b      []byte
	i      int
	err    error
	nodes  []Node
	leaves []float64
}

var (
	modelKeys  = []string{"base_score", "trees", "num_features", "feature_names", "params", "best_iteration"}
	treeKeys   = []string{"nodes", "leaves"}
	nodeKeys   = []string{"f", "t", "l", "r"}
	paramsKeys = []string{"NumRounds", "NumLeaves", "LearningRate", "MinDataInLeaf", "Lambda", "MaxBins",
		"Objective", "ValidationFraction", "EarlyStoppingRounds", "FeatureFraction", "BaggingFraction", "Seed"}
)

func (d *decoder) model(m *Model) {
	var seen uint32
	for n := 0; d.more('{', '}', n); n++ {
		switch d.key(modelKeys, &seen) {
		case 0:
			m.BaseScore = d.float()
		case 1:
			if d.null() {
				continue
			}
			m.Trees = []Tree{}
			for i := 0; d.more('[', ']', i); i++ {
				m.Trees = append(m.Trees, Tree{})
				d.tree(&m.Trees[i])
			}
		case 2:
			m.NumFeatures = int(d.int(strconv.IntSize))
		case 3:
			if d.null() {
				continue
			}
			m.FeatureNames = []string{}
			for i := 0; d.more('[', ']', i); i++ {
				m.FeatureNames = append(m.FeatureNames, d.string())
			}
		case 4:
			d.params(&m.Params)
		case 5:
			m.BestIteration = int(d.int(strconv.IntSize))
		}
	}
}

func (d *decoder) tree(t *Tree) {
	var seen uint32
	for n := 0; d.more('{', '}', n); n++ {
		switch d.key(treeKeys, &seen) {
		case 0:
			if d.null() {
				continue
			}
			d.nodes = d.nodes[:0]
			for i := 0; d.more('[', ']', i); i++ {
				d.nodes = append(d.nodes, Node{})
				d.node(&d.nodes[i])
			}
			t.Nodes = append(make([]Node, 0, len(d.nodes)), d.nodes...)
		case 1:
			if d.null() {
				continue
			}
			d.leaves = d.leaves[:0]
			for i := 0; d.more('[', ']', i); i++ {
				d.leaves = append(d.leaves, d.float())
			}
			t.Leaves = append(make([]float64, 0, len(d.leaves)), d.leaves...)
		}
	}
}

func (d *decoder) node(nd *Node) {
	var seen uint32
	for n := 0; d.more('{', '}', n); n++ {
		switch d.key(nodeKeys, &seen) {
		case 0:
			nd.Feature = int32(d.int(32))
		case 1:
			nd.Threshold = d.float()
		case 2:
			nd.Left = int32(d.int(32))
		case 3:
			nd.Right = int32(d.int(32))
		}
	}
}

func (d *decoder) params(p *Params) {
	var seen uint32
	for n := 0; d.more('{', '}', n); n++ {
		switch d.key(paramsKeys, &seen) {
		case 0:
			p.NumRounds = int(d.int(strconv.IntSize))
		case 1:
			p.NumLeaves = int(d.int(strconv.IntSize))
		case 2:
			p.LearningRate = d.float()
		case 3:
			p.MinDataInLeaf = int(d.int(strconv.IntSize))
		case 4:
			p.Lambda = d.float()
		case 5:
			p.MaxBins = int(d.int(strconv.IntSize))
		case 6:
			p.Objective = Objective(d.string())
		case 7:
			p.ValidationFraction = d.float()
		case 8:
			p.EarlyStoppingRounds = int(d.int(strconv.IntSize))
		case 9:
			p.FeatureFraction = d.float()
		case 10:
			p.BaggingFraction = d.float()
		case 11:
			p.Seed = d.int(64)
		}
	}
}

// fail records the first error and empties the input, so that peek reports
// its end from then on.
func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("gbdt: model JSON at offset %d: %s", d.i, fmt.Sprintf(format, args...))
	}
	d.b, d.i = nil, 0
}

// peek skips whitespace and returns the next byte, or -1 at the end of the
// input.
func (d *decoder) peek() int {
	for d.i < len(d.b) {
		switch c := d.b[d.i]; c {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return int(c)
		}
	}
	return -1
}

// more steps through an array or object delimited by open and close, whose
// element n comes next: it reads open before the first element and a comma
// before every other, and reports false once it has read close.
func (d *decoder) more(open, close byte, n int) bool {
	c := d.peek()
	switch {
	case n == 0 && c == int(open):
		d.i++
		if d.peek() != int(close) {
			return true
		}
	case n > 0 && c == ',':
		d.i++
		return true
	case n > 0 && c == int(close):
	default:
		if n == 0 {
			d.fail("want %q", open)
		} else {
			d.fail("want ',' or %q", close)
		}
		return false
	}
	d.i++
	return false
}

// key reads an object key and its colon and returns the key's index in keys.
// It fails, returning -1, on a key not in keys, written with an escape, or
// already in seen, which has a bit per index. Keys mostly come in the order of
// keys, so the search starts at the one after as many as seen.
func (d *decoder) key(keys []string, seen *uint32) int {
	if d.peek() != '"' {
		d.fail("want a key")
		return -1
	}
	start, next := d.i+1, bits.OnesCount32(*seen)
	for j := range keys {
		i := (next + j) % len(keys)
		end := start + len(keys[i])
		if end >= len(d.b) || d.b[end] != '"' || string(d.b[start:end]) != keys[i] {
			continue
		}
		if *seen&(1<<i) != 0 {
			d.fail("repeated key %q", keys[i])
			return -1
		}
		*seen |= 1 << i
		d.i = end + 1
		if d.peek() != ':' {
			d.fail("want ':'")
			return -1
		}
		d.i++
		return i
	}
	d.fail("unknown key")
	return -1
}

// null reads a null if one comes next.
func (d *decoder) null() bool {
	if d.peek() != 'n' || len(d.b)-d.i < 4 || string(d.b[d.i:d.i+4]) != "null" {
		return false
	}
	d.i += 4
	return true
}

// number reads a JSON number and returns its text, and whether it has neither
// a fraction nor an exponent.
func (d *decoder) number() (text []byte, integral bool) {
	if d.peek() < 0 {
		d.fail("want a number")
		return nil, false
	}
	start, i := d.i, d.i
	if d.b[i] == '-' {
		i++
	}
	switch {
	case i < len(d.b) && d.b[i] == '0':
		i++
	case i < len(d.b) && '1' <= d.b[i] && d.b[i] <= '9':
		i = d.digits(i)
	default:
		d.fail("want a number")
		return nil, false
	}
	integral = true
	if i < len(d.b) && d.b[i] == '.' {
		integral = false
		if j := d.digits(i + 1); j > i+1 {
			i = j
		} else {
			d.fail("want a digit")
			return nil, false
		}
	}
	if i < len(d.b) && (d.b[i] == 'e' || d.b[i] == 'E') {
		integral = false
		i++
		if i < len(d.b) && (d.b[i] == '+' || d.b[i] == '-') {
			i++
		}
		if j := d.digits(i); j > i {
			i = j
		} else {
			d.fail("want a digit")
			return nil, false
		}
	}
	d.i = i
	return d.b[start:i], integral
}

// digits returns the offset past the run of decimal digits at i.
func (d *decoder) digits(i int) int {
	for i < len(d.b) && '0' <= d.b[i] && d.b[i] <= '9' {
		i++
	}
	return i
}

// float reads a number as encoding/json does, with strconv.ParseFloat, and
// refuses one beyond the float64 range.
func (d *decoder) float() float64 {
	text, _ := d.number()
	if d.err != nil {
		return 0
	}
	f, err := strconv.ParseFloat(string(text), 64)
	if err != nil {
		d.fail("number %s: %v", text, err)
	}
	return f
}

// int reads an integer of the given bit size, refusing a fraction, an
// exponent and overflow, as encoding/json does.
func (d *decoder) int(bitSize int) int64 {
	text, integral := d.number()
	if d.err != nil {
		return 0
	}
	if !integral {
		d.fail("number %s is not an integer", text)
		return 0
	}
	neg := text[0] == '-'
	digits := text
	if neg {
		digits = text[1:]
	}
	// The magnitude may reach limit for a negative number, limit-1 for
	// any other.
	limit := uint64(1) << (bitSize - 1)
	var u uint64
	for _, c := range digits {
		if u > limit/10 {
			u = limit + 1
			break
		}
		u = u*10 + uint64(c-'0')
	}
	if u > limit || u == limit && !neg {
		d.fail("number %s overflows int%d", text, bitSize)
		return 0
	}
	if neg {
		return -int64(u)
	}
	return int64(u)
}

// string reads a string and unquotes it as encoding/json does: an invalid
// UTF-8 byte, and a \u escape of an unpaired surrogate, become U+FFFD.
func (d *decoder) string() string {
	if d.peek() != '"' {
		d.fail("want a string")
		return ""
	}
	i := d.i + 1
	var out []byte
	for {
		if i >= len(d.b) {
			d.fail("unterminated string")
			return ""
		}
		switch c := d.b[i]; {
		case c == '"':
			d.i = i + 1
			return string(out)
		case c < ' ':
			d.fail("control byte in string")
			return ""
		case c == '\\':
			if i+1 >= len(d.b) {
				d.fail("unterminated string")
				return ""
			}
			switch e := d.b[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := d.hex4(i + 2)
				if r < 0 {
					d.fail("bad \\u escape")
					return ""
				}
				i += 6
				if utf16.IsSurrogate(r) {
					// A valid pair takes the next escape too; anything
					// else leaves it be and stands for U+FFFD.
					if r2 := d.pair(i); r2 >= 0 {
						if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
							out = utf8.AppendRune(out, dec)
							i += 6
							continue
						}
					}
					r = utf8.RuneError
				}
				out = utf8.AppendRune(out, r)
				continue
			default:
				d.fail("bad escape")
				return ""
			}
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(d.b[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
}

// pair returns the rune of a \uXXXX escape at i, or -1 if none is there.
func (d *decoder) pair(i int) rune {
	if i+1 >= len(d.b) || d.b[i] != '\\' || d.b[i+1] != 'u' {
		return -1
	}
	return d.hex4(i + 2)
}

// hex4 returns the value of the four hex digits at i, or -1.
func (d *decoder) hex4(i int) rune {
	if len(d.b)-i < 4 {
		return -1
	}
	var r rune
	for _, c := range d.b[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
