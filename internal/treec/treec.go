// Package treec compiles gradient-boosted tree ensembles for low-latency
// evaluation — the stand-in for the lleaves/LLVM compiler in the paper
// (§2.6). Its compile step is Pack, run once per model load; it holds one
// runtime evaluator, and the rest of the repository reaches no other:
//
//   - Serving tier: Packed (packed.go). Pack lays every decision node out as
//     one 16-byte record (float32 threshold, uint16 feature id, int32
//     children, leaf values in one unified array), trees root-first in
//     breadth-first blocks. It has two entry points: Predict walks one
//     vector; PredictRowsInto scores a row-major arena eight rows at a time
//     through the bitvector kernel Pack also compiles (quickscorer.go), which
//     visits only the nodes a row fails, and those all eight fail once for
//     the eight, bit-identical to Predict per row. Every
//     prediction, plan costing and retrain score runs here. Both layouts
//     exist only in memory: a model is stored as its trained
//     ensemble (gbdt JSON, whose Validate guards the structure Pack relies
//     on) and packed once per load, so neither has a format to keep.
//   - Reference: the interpreter, gbdt.Model.Predict, pointer-walking over
//     the trained float64 node structs — LightGBM's built-in evaluator in the
//     paper's terms. Tests check Packed against it; Flat records the trained
//     thresholds so they can tell a legitimate float32 rounding-gap
//     disagreement (InRoundingGap) from a bug. Flat evaluates nothing.
//   - Source emitter: GenGo writes Go source in which each internal node is
//     one comparison and one branch and each leaf a return — the instruction
//     shape lleaves produces (§2.6, "Model Compilation"). cmd/t3compile runs
//     it on a saved model; nothing in the repository builds or serves from
//     its output. It shares no code with Packed, but emitted thresholds
//     follow Packed's float32 round-up contract, so generated code and
//     Packed are bit-equivalent on every input.
package treec

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"

	"t3/internal/gbdt"
)

// GenGo writes a Go source file for the model: package pkg exposing
//
//	func Predict(v []float64) float64
//	func PredictBatch(vs [][]float64) []float64
//	func NumFeatures() int
//	func NumTrees() int
//
// Every internal node compiles to one comparison and one branch; every leaf
// to a return — the lleaves instruction shape. Thresholds are emitted under
// the packed tier's contract: the float64 value of the float32 round-up of
// the trained threshold (RoundThreshold32), so the generated code is
// bit-equivalent to Pack on every input, and to the float64 interpreter on
// every input outside the documented rounding gaps. The file imports math
// only when a literal needs it (an infinite threshold), and carries a
// "Code generated" marker so linters skip it.
func GenGo(m *gbdt.Model, pkg string, w io.Writer) error {
	base := m.BaseScore
	var funcs []int
	for ti := range m.Trees {
		if len(m.Trees[ti].Nodes) == 0 {
			base += m.Trees[ti].Leaves[0]
			continue
		}
		funcs = append(funcs, ti)
	}

	var body bytes.Buffer
	fmt.Fprintf(&body, "// NumFeatures returns the expected feature-vector length.\n")
	fmt.Fprintf(&body, "func NumFeatures() int { return %d }\n\n", m.NumFeatures)
	fmt.Fprintf(&body, "// NumTrees returns the number of compiled trees.\n")
	fmt.Fprintf(&body, "func NumTrees() int { return %d }\n\n", len(funcs))

	fmt.Fprintf(&body, "// Predict evaluates the compiled ensemble for one feature vector.\n")
	fmt.Fprintf(&body, "func Predict(v []float64) float64 {\n")
	fmt.Fprintf(&body, "\ts := %s\n", gofloat(base))
	for i := range funcs {
		fmt.Fprintf(&body, "\ts += tree%d(v)\n", i)
	}
	fmt.Fprintf(&body, "\treturn s\n}\n\n")

	fmt.Fprintf(&body, "// PredictBatch evaluates the ensemble for many vectors.\n")
	fmt.Fprintf(&body, "func PredictBatch(vs [][]float64) []float64 {\n")
	fmt.Fprintf(&body, "\tout := make([]float64, len(vs))\n")
	fmt.Fprintf(&body, "\tfor i, v := range vs {\n\t\tout[i] = Predict(v)\n\t}\n\treturn out\n}\n\n")

	for i, ti := range funcs {
		t := &m.Trees[ti]
		fmt.Fprintf(&body, "func tree%d(v []float64) float64 {\n", i)
		genNode(&body, t, 0, 1)
		fmt.Fprintf(&body, "}\n\n")
	}

	var head bytes.Buffer
	fmt.Fprintf(&head, "// Code generated by t3compile; DO NOT EDIT.\n\n")
	fmt.Fprintf(&head, "// Package %s is the ahead-of-time compiled form of a trained T3 model:\n", pkg)
	fmt.Fprintf(&head, "// each decision node is a comparison and a branch, each leaf a return.\n")
	fmt.Fprintf(&head, "package %s\n\n", pkg)
	if bytes.Contains(body.Bytes(), []byte("math.")) {
		fmt.Fprintf(&head, "import \"math\"\n\n")
	}
	if _, err := head.WriteTo(w); err != nil {
		return err
	}
	_, err := body.WriteTo(w)
	return err
}

// genNode emits the if/else chain for node ni of t at the given indent.
func genNode(w io.Writer, t *gbdt.Tree, ni int32, depth int) {
	ind := indent(depth)
	n := &t.Nodes[ni]
	fmt.Fprintf(w, "%sif v[%d] <= %s {\n", ind, n.Feature, gofloat(float64(RoundThreshold32(n.Threshold))))
	genChild(w, t, n.Left, depth+1)
	fmt.Fprintf(w, "%s}\n", ind)
	genChild(w, t, n.Right, depth)
}

// genChild emits either a return (leaf) or a nested node.
func genChild(w io.Writer, t *gbdt.Tree, c int32, depth int) {
	if c < 0 {
		fmt.Fprintf(w, "%sreturn %s\n", indent(depth), gofloat(t.Leaves[^c]))
		return
	}
	genNode(w, t, c, depth)
}

func indent(depth int) string {
	const tabs = "\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t"
	if depth <= len(tabs) {
		return tabs[:depth]
	}
	b := make([]byte, depth)
	for i := range b {
		b[i] = '\t'
	}
	return string(b)
}

// gofloat formats a float64 as a Go literal that parses back to the exact
// same value.
func gofloat(f float64) string {
	if math.IsInf(f, 1) {
		return "math.Inf(1)"
	}
	if math.IsInf(f, -1) {
		return "math.Inf(-1)"
	}
	s := strconv.FormatFloat(f, 'g', -1, 64)
	// Ensure the literal is a float (e.g. "3" -> "3.0") so arithmetic stays
	// in float64.
	for _, c := range s {
		if c == '.' || c == 'e' || c == 'E' || c == 'N' {
			return s
		}
	}
	return s + ".0"
}
