// Package treec compiles gradient-boosted tree ensembles for low-latency
// evaluation — the stand-in for the lleaves/LLVM compiler in the paper
// (§2.6). Its compile step is Pack, run once per model load; it holds one
// runtime evaluator, and the rest of the repository reaches no other:
//
//   - Serving tier: Packed (packed.go). Pack lays every decision node out as
//     one 16-byte record (float32 threshold, uint16 feature id, int32
//     children, leaf values in one unified array), trees root-first in
//     breadth-first blocks. Predict walks one vector; PredictRowsInto scores
//     a row-major arena up to eight rows at a time through the bitvector
//     kernel Pack also compiles (quickscorer.go), which visits only the nodes
//     a row fails, applies those all rows of a block fail once for the block,
//     and applies a long false prefix through a checkpoint — every 32nd node
//     of a feature's threshold-sorted list stores, per tree, the AND of that
//     tree's masks before it, so a prefix costs one AND per tree it touches
//     plus at most 31 nodes, not one AND per node. PredictRowsFrom is the same
//     kernel for rows that equal a base vector outside a feature set: each
//     row begins from its base's Starts entry, the bitvectors the base's
//     nodes outside the set leave, and searches the set's lists only; the
//     join enumerator's rows are a relation's scan pipeline plus join stages,
//     so they search 13 of the default model's lists a row where
//     PredictRowsInto searches all of them. Each row stays bit-identical to
//     Predict. Every
//     prediction, plan costing and retrain score runs here. Both layouts
//     exist only in memory: a model is stored as its trained
//     ensemble (gbdt JSON, whose Validate guards the structure Pack relies
//     on) and packed once per load, so neither has a format to keep.
//   - Reference: the interpreter, gbdt.Model.Predict, pointer-walking over
//     the trained node structs — LightGBM's built-in evaluator in the paper's
//     terms. The trainer stores every threshold as a float32 value, so Pack
//     keeps each exactly and tests hold Packed to the interpreter bit for bit
//     on every input.
package treec

// Flat exists only because the benchmark's predict workload
// (bench/w_predict.go) still calls InRoundingGap; it goes when that call does.
// Thresholds are float32 in the model, so Packed routes every vector as the
// interpreter does.
type Flat struct{}

// InRoundingGap always reports false: no vector routes differently.
func (*Flat) InRoundingGap([]float64) bool { return false }
