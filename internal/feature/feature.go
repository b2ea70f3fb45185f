// Package feature turns pipelines into the flat feature vectors T3's
// decision-tree model consumes (§3 of the paper).
//
// Every (operator type, stage) pair declares a small list of named basic
// features — percentages, tuple sizes, and cardinalities over the stage's
// tuple streams (IN, OUT, RIGHT) — plus an occurrence count. A Registry
// assigns each (operator, stage, feature) a fixed index in the vector, so
// adding operators or features requires only extending the spec table
// ("little manual work"). Duplicate stages within one pipeline (e.g. chains
// of join probes) are folded by feature addition: the basic features are
// designed to stay meaningful when summed (§3, "Duplicate Operators").
//
// All features are tuple-centric: they describe the expected work caused by
// one tuple entering the pipeline, matching T3's per-tuple prediction
// targets.
package feature

import (
	"fmt"
	"sort"
	"strings"

	"t3/internal/engine/expr"
	"t3/internal/engine/plan"
)

// Basic feature names. The set mirrors the paper's percentage / size /
// cardinality trio plus the table-scan predicate-class percentages.
const (
	// FCount counts occurrences of the stage in the pipeline.
	FCount = "count"
	// FInCard is the cardinality of the stream entering the stage (for
	// pipeline sources: the scanned cardinality).
	FInCard = "in_card"
	// FInSize is the width in bytes of tuples materialized or consumed by
	// the stage.
	FInSize = "in_size"
	// FInPct is the fraction of pipeline-source tuples reaching the stage.
	FInPct = "in_percentage"
	// FOutPct is the fraction of pipeline-source tuples leaving the stage.
	FOutPct = "out_percentage"
	// FRightPct is the fraction of pipeline-source tuples arriving on the
	// RIGHT stream of a probe stage.
	FRightPct = "right_percentage"
	// FOutCard is the cardinality of the stage's OUT stream (e.g. group
	// count for aggregations).
	FOutCard = "out_card"
	// FOutSize is the width in bytes of tuples on the OUT stream.
	FOutSize = "out_size"
	// FHTCard is the cardinality of the hash table probed by a probe stage
	// (the build side's materialized cardinality).
	FHTCard = "ht_card"
	// FExprPrefix prefixes the per-predicate-class evaluation percentages of
	// table scans, e.g. "expr_between_percentage".
	FExprPrefix = "expr_"
)

// exprPctName returns the feature name for a predicate class.
func exprPctName(c expr.Class) string {
	return FExprPrefix + c.String() + "_percentage"
}

// StageKey identifies an operator stage.
type StageKey struct {
	Op    plan.OpType
	Stage plan.Stage
}

// String renders the key as "HashJoin_Build".
func (k StageKey) String() string { return fmt.Sprintf("%s_%s", k.Op, k.Stage) }

// Spec maps each operator stage to its ordered list of basic features.
type Spec map[StageKey][]string

// DefaultSpec returns the hand-selected feature lists for all operator
// stages the engine produces (§3, "Basic Features").
func DefaultSpec() Spec {
	scanExprs := []string{
		exprPctName(expr.ClassComparison),
		exprPctName(expr.ClassBetween),
		exprPctName(expr.ClassIn),
		exprPctName(expr.ClassLike),
		exprPctName(expr.ClassOther),
	}
	s := Spec{
		{plan.TableScanOp, plan.StageScan}: append([]string{FCount, FInCard, FOutPct, FOutSize}, scanExprs...),

		{plan.FilterOp, plan.StagePassThrough}: {FCount, FInPct, FOutPct},
		{plan.MapOp, plan.StagePassThrough}:    {FCount, FInPct, FOutSize},
		{plan.LimitOp, plan.StagePassThrough}:  {FCount, FInPct, FOutPct},

		{plan.HashJoinOp, plan.StageBuild}: {FCount, FInCard, FInSize, FInPct},
		{plan.HashJoinOp, plan.StageProbe}: {FCount, FHTCard, FRightPct, FOutPct, FOutSize},

		{plan.GroupByOp, plan.StageBuild}: {FCount, FInPct, FOutCard, FOutSize},
		{plan.GroupByOp, plan.StageScan}:  {FCount, FInCard, FOutSize},

		{plan.SortOp, plan.StageBuild}: {FCount, FInCard, FInSize, FInPct},
		{plan.SortOp, plan.StageScan}:  {FCount, FInCard, FOutSize},

		{plan.WindowOp, plan.StageBuild}: {FCount, FInCard, FInSize, FInPct},
		{plan.WindowOp, plan.StageScan}:  {FCount, FInCard, FOutSize},

		{plan.MaterializeOp, plan.StageBuild}: {FCount, FInCard, FInSize, FInPct},
		{plan.MaterializeOp, plan.StageScan}:  {FCount, FInCard, FOutSize},
	}
	return s
}

// Registry assigns every (operator stage, feature) a fixed vector index.
type Registry struct {
	spec    Spec
	index   map[StageKey]map[string]int
	names   []string
	numFeat int
	// entries caches (feature name, index) pairs per stage indexed by
	// [op][stage] for allocation-free featurization on the prediction path.
	entries [plan.NumOpTypes][plan.NumStages][]regEntry
}

// regEntry pairs a feature name with its vector index.
type regEntry struct {
	name string
	idx  int
}

// NewRegistry builds a registry from a spec with deterministic index
// assignment (stages sorted by operator then stage, features in spec order).
func NewRegistry(spec Spec) *Registry {
	keys := make([]StageKey, 0, len(spec))
	for k := range spec {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Op != keys[j].Op {
			return keys[i].Op < keys[j].Op
		}
		return keys[i].Stage < keys[j].Stage
	})
	r := &Registry{spec: spec, index: make(map[StageKey]map[string]int)}
	for _, k := range keys {
		m := make(map[string]int, len(spec[k]))
		for _, f := range spec[k] {
			m[f] = r.numFeat
			r.names = append(r.names, k.String()+"_"+f)
			r.entries[k.Op][k.Stage] = append(r.entries[k.Op][k.Stage], regEntry{name: f, idx: r.numFeat})
			r.numFeat++
		}
		r.index[k] = m
	}
	return r
}

// NewDefaultRegistry builds the registry for the default spec.
func NewDefaultRegistry() *Registry { return NewRegistry(DefaultSpec()) }

// NumFeatures returns the length of the feature vectors (the paper's
// n_features, 110 in their implementation).
func (r *Registry) NumFeatures() int { return r.numFeat }

// Names returns the feature names by index.
func (r *Registry) Names() []string { return r.names }

// Location returns the vector index of a feature of an operator stage, or
// -1 when the stage does not use that feature (the paper's getLocation).
func (r *Registry) Location(k StageKey, feature string) int {
	m, ok := r.index[k]
	if !ok {
		return -1
	}
	i, ok := m[feature]
	if !ok {
		return -1
	}
	return i
}

// effectiveSourceCard clamps the pipeline input cardinality to at least one
// tuple so that per-tuple targets stay defined for empty pipelines.
func effectiveSourceCard(p *plan.Pipeline, mode plan.CardMode) float64 {
	c := p.SourceCard(mode)
	if c < 1 {
		return 1
	}
	return c
}

// SourceCard returns the (clamped) input cardinality of the pipeline that
// T3 multiplies per-tuple predictions by.
func SourceCard(p *plan.Pipeline, mode plan.CardMode) float64 {
	return effectiveSourceCard(p, mode)
}

// PipelineVector encodes one pipeline as a flat feature vector, following
// the paper's Listing 1.
func (r *Registry) PipelineVector(p *plan.Pipeline, mode plan.CardMode) []float64 {
	vec := make([]float64, r.numFeat)
	r.PipelineVectorInto(p, mode, vec)
	return vec
}

// PipelineVectorInto encodes the pipeline into a caller-provided vector of
// length NumFeatures (zeroing it first), avoiding allocation on the
// prediction hot path.
func (r *Registry) PipelineVectorInto(p *plan.Pipeline, mode plan.CardMode, vec []float64) {
	for i := range vec {
		vec[i] = 0
	}
	src := effectiveSourceCard(p, mode)
	for si := range p.Stages {
		s := &p.Stages[si]
		for _, ent := range r.entries[s.Node.Op][s.Stage] {
			if ent.name == FCount {
				vec[ent.idx]++
				continue
			}
			vec[ent.idx] += stageFeature(ent.name, p, si, src, mode)
		}
	}
}

// AppendVec appends the pipeline's feature vector (NumFeatures values) to
// dst and returns the extended slice. Callers that reuse dst's backing array
// across calls featurize whole plans into one contiguous buffer without
// allocating — the packed evaluator's preferred input layout.
func (r *Registry) AppendVec(dst []float64, p *plan.Pipeline, mode plan.CardMode) []float64 {
	n := len(dst)
	if cap(dst)-n < r.numFeat {
		grown := make([]float64, n, 2*n+r.numFeat)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:n+r.numFeat]
	r.PipelineVectorInto(p, mode, dst[n:])
	return dst
}

// Scratch holds reusable storage for allocation-free plan featurization:
// pipeline decomposition state, one flat buffer backing all pipeline
// vectors, and the vector views into it. The zero value is ready to use.
//
// The same buffer serves as a batch's row arena (ResetRows, AppendPlanRows,
// Rows): the pipeline rows of many plans back to back, each with its source
// cardinality, in the row-major shape treec.Packed.PredictRowsInto reads.
type Scratch struct {
	Pipes plan.PipelineScratch
	buf   []float64
	vecs  [][]float64
	cards []float64
}

// ResetRows empties the row arena.
func (s *Scratch) ResetRows() {
	s.buf = s.buf[:0]
	s.cards = s.cards[:0]
}

// AppendPlanRows decomposes a plan and appends one feature row per pipeline
// to the scratch's row arena, in execution order, with the row's source
// cardinality beside it. It returns how many rows the arena now holds, which
// is where the next plan's rows begin.
func (r *Registry) AppendPlanRows(s *Scratch, root *plan.Node, mode plan.CardMode) int {
	for _, p := range plan.DecomposeInto(root, &s.Pipes) {
		s.buf = r.AppendVec(s.buf, p, mode)
		s.cards = append(s.cards, effectiveSourceCard(p, mode))
	}
	return len(s.cards)
}

// Rows returns the row arena: len(cards) rows of NumFeatures values each,
// row-major, and the source cardinality T3 scales each row's prediction by.
// Both alias the scratch and are valid until its next use.
func (s *Scratch) Rows() (rows, cards []float64) { return s.buf, s.cards }

// FeaturizeInto decomposes a plan and encodes every pipeline into the
// scratch, returning the vectors and pipelines. Both alias the scratch and
// are valid only until its next FeaturizeInto call; after a few calls the
// scratch capacities stabilize and featurization stops allocating.
func (r *Registry) FeaturizeInto(s *Scratch, root *plan.Node, mode plan.CardMode) ([][]float64, []*plan.Pipeline) {
	ps := plan.DecomposeInto(root, &s.Pipes)
	return r.EncodeDecomposed(s, ps, mode), ps
}

// EncodeDecomposed encodes already-decomposed pipelines into the scratch —
// the second half of FeaturizeInto, split out so instrumented callers can
// time decomposition and featurization as separate stages. The returned
// vectors alias the scratch.
func (r *Registry) EncodeDecomposed(s *Scratch, ps []*plan.Pipeline, mode plan.CardMode) [][]float64 {
	s.buf = s.buf[:0]
	for _, p := range ps {
		s.buf = r.AppendVec(s.buf, p, mode)
	}
	// Views are cut only after the buffer stops growing, so they can never
	// dangle into a reallocated backing array.
	s.vecs = s.vecs[:0]
	for i := range ps {
		s.vecs = append(s.vecs, s.buf[i*r.numFeat:(i+1)*r.numFeat])
	}
	return s.vecs
}

// PlanVectors decomposes a plan and encodes all pipelines. It returns the
// vectors together with the pipelines so callers can pair predictions with
// source cardinalities.
func (r *Registry) PlanVectors(root *plan.Node, mode plan.CardMode) ([][]float64, []*plan.Pipeline) {
	ps := plan.Decompose(root)
	vecs := make([][]float64, len(ps))
	for i, p := range ps {
		vecs[i] = r.PipelineVector(p, mode)
	}
	return vecs, ps
}

// stageFeature computes the value of one named basic feature for stage si of
// pipeline p. src is the clamped pipeline source cardinality.
func stageFeature(name string, p *plan.Pipeline, si int, src float64, mode plan.CardMode) float64 {
	s := p.Stages[si]
	n := s.Node
	switch name {
	case FInCard:
		if si == 0 {
			return p.SourceCard(mode)
		}
		return p.ReachCard(si, mode)
	case FInPct:
		return p.ReachCard(si, mode) / src
	case FRightPct:
		// Probe stages consume the pipeline's running stream as their RIGHT
		// input.
		return p.ReachCard(si, mode) / src
	case FOutPct:
		return n.OutCard.Get(mode) / src
	case FOutCard:
		return n.OutCard.Get(mode)
	case FOutSize:
		return float64(n.OutWidth())
	case FHTCard:
		// Cardinality of the probed hash table: the build side's output.
		if n.Left != nil {
			return n.Left.OutCard.Get(mode)
		}
		return 0
	case FInSize:
		return float64(materializedWidth(n))
	default:
		if strings.HasPrefix(name, FExprPrefix) {
			return exprClassPct(n, name, mode)
		}
		return 0
	}
}

// materializedWidth returns the byte width a build stage materializes per
// tuple. Joins store only key and payload columns (cf. the paper's Q5
// example where the hash table stores a single 8-byte key).
func materializedWidth(n *plan.Node) int {
	switch n.Op {
	case plan.HashJoinOp:
		if n.BuildWidth > 0 {
			return n.BuildWidth
		}
		w := 0
		for _, ci := range n.BuildKeys {
			w += n.Left.Schema[ci].Kind.Width()
		}
		for _, ci := range n.BuildPayload {
			w += n.Left.Schema[ci].Kind.Width()
		}
		return w
	default:
		return n.InWidth()
	}
}

// exprClassPct computes, for a table scan, the fraction of scanned tuples on
// which predicates of the class encoded in name are evaluated. Predicates
// short-circuit in order, so predicate i is evaluated on the tuples passing
// predicates 0..i-1 (§3, "Table Scan Operators").
func exprClassPct(n *plan.Node, name string, mode plan.CardMode) float64 {
	if n.Op != plan.TableScanOp {
		return 0
	}
	class := strings.TrimSuffix(strings.TrimPrefix(name, FExprPrefix), "_percentage")
	total := 0.0
	reach := 1.0
	for i, pred := range n.Predicates {
		if pred.Class().String() == class {
			total += reach
		}
		reach *= n.PredSel[i].Get(mode)
	}
	return total
}

// Describe renders a vector with feature names, omitting zeros — the format
// of the paper's Listings 3 and 4. Useful for debugging and the quickstart
// example.
func (r *Registry) Describe(vec []float64) string {
	var sb strings.Builder
	for i, v := range vec {
		if v == 0 {
			continue
		}
		fmt.Fprintf(&sb, "%s: %g\n", r.names[i], v)
	}
	return sb.String()
}
