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
	// entries caches each stage's features, resolved to kinds, indexed by
	// [op][stage] for allocation-free featurization on the prediction path.
	entries [plan.NumOpTypes][plan.NumStages][]regEntry
}

// featKind is a basic feature resolved from its name once, in NewRegistry, so
// that featurizing a stage switches on an integer instead of comparing names.
type featKind uint8

const (
	kindZero featKind = iota // a name no stage computes: contributes nothing
	kindCount
	kindInCard
	kindInSize
	kindInPct // in_percentage and right_percentage: IN stream over the source
	kindOutPct
	kindOutCard
	kindOutSize
	kindHTCard
	kindExpr
)

// kindOf maps the basic feature names to their kinds; FExprPrefix names are
// resolved separately, to kindExpr and a predicate class.
var kindOf = map[string]featKind{
	FCount:    kindCount,
	FInCard:   kindInCard,
	FInSize:   kindInSize,
	FInPct:    kindInPct,
	FRightPct: kindInPct,
	FOutPct:   kindOutPct,
	FOutCard:  kindOutCard,
	FOutSize:  kindOutSize,
	FHTCard:   kindHTCard,
}

// regEntry is one feature of a stage: its kind, its predicate class when the
// kind is kindExpr, and its vector index.
type regEntry struct {
	kind  featKind
	class expr.Class
	idx   int
}

// resolveFeature resolves a basic feature name to its kind and, for
// FExprPrefix names, the predicate class whose String the name embeds.
func resolveFeature(name string) (featKind, expr.Class) {
	if k, ok := kindOf[name]; ok {
		return k, 0
	}
	if strings.HasPrefix(name, FExprPrefix) {
		class := strings.TrimSuffix(strings.TrimPrefix(name, FExprPrefix), "_percentage")
		for c := expr.Class(0); c < expr.NumClasses; c++ {
			if c.String() == class {
				return kindExpr, c
			}
		}
	}
	return kindZero, 0
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
			kind, class := resolveFeature(f)
			r.entries[k.Op][k.Stage] = append(r.entries[k.Op][k.Stage], regEntry{kind: kind, class: class, idx: r.numFeat})
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

// StageFeatures returns the vector indices of the features the registry
// declares for stage k, in spec order: every slot AddStage can write for k.
func (r *Registry) StageFeatures(k StageKey) []int {
	es := r.entries[k.Op][k.Stage]
	idx := make([]int, len(es))
	for i, e := range es {
		idx[i] = e.idx
	}
	return idx
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

// StageStats holds the quantities one operator stage's basic features are
// computed from. The serving encoder fills it from an annotated pipeline; the
// join-order planner fills it from cardinality estimates for the stages a
// candidate join tree would have. Both fold it into a vector with AddStage,
// so what a feature means is decided here alone.
type StageStats struct {
	// In is the cardinality of the stream entering the stage; for a
	// pipeline's source stage, the scanned cardinality.
	In float64
	// Out is the cardinality of the stage operator's OUT stream.
	Out float64
	// OutWidth is the byte width of the operator's OUT tuples.
	OutWidth float64
	// HTCard is the OUT cardinality of the operator's left input: for a hash
	// join, the build side that fills the hash table a probe stage probes.
	HTCard float64
	// MatWidth is the byte width a build stage materializes per tuple: a
	// hash join's key and payload columns, any other breaker's input tuple.
	MatWidth float64
	// ExprPct holds, per predicate class, the fraction of scanned tuples a
	// table scan evaluates predicates of that class on.
	ExprPct [expr.NumClasses]float64
}

// AddStage folds one stage into vec (of length NumFeatures): every feature
// the registry declares for stage k is computed from st and added to its
// slot, which is how repeated stages of one pipeline sum (§3, "Duplicate
// Operators"). src is the pipeline's clamped source cardinality (SourceCard),
// which percentages are taken of. A stage the registry does not declare adds
// nothing.
func (r *Registry) AddStage(vec []float64, k StageKey, st *StageStats, src float64) {
	for _, e := range r.entries[k.Op][k.Stage] {
		var v float64
		switch e.kind {
		case kindCount:
			v = 1
		case kindInCard:
			v = st.In
		case kindInSize:
			v = st.MatWidth
		case kindInPct:
			v = st.In / src
		case kindOutPct:
			v = st.Out / src
		case kindOutCard:
			v = st.Out
		case kindOutSize:
			v = st.OutWidth
		case kindHTCard:
			v = st.HTCard
		case kindExpr:
			v = st.ExprPct[e.class]
		default:
			continue
		}
		vec[e.idx] += v
	}
}

// PipelineVectorInto encodes the pipeline into a caller-provided vector of
// length NumFeatures (zeroing it first), avoiding allocation on the
// prediction hot path.
func (r *Registry) PipelineVectorInto(p *plan.Pipeline, mode plan.CardMode, vec []float64) {
	clear(vec)
	src := effectiveSourceCard(p, mode)
	var st StageStats
	for si := range p.Stages {
		s := &p.Stages[si]
		k := StageKey{Op: s.Node.Op, Stage: s.Stage}
		st.Fill(p, si, mode)
		r.AddStage(vec, k, &st, src)
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

// Fill sets st to stage si of pipeline p, as the plan's annotations in mode
// describe it.
func (st *StageStats) Fill(p *plan.Pipeline, si int, mode plan.CardMode) {
	n := p.Stages[si].Node
	*st = StageStats{
		In:       p.ReachCard(si, mode),
		Out:      n.OutCard.Get(mode),
		OutWidth: float64(n.OutWidth()),
		MatWidth: float64(materializedWidth(n)),
	}
	if n.Left != nil {
		st.HTCard = n.Left.OutCard.Get(mode)
	}
	if n.Op == plan.TableScanOp {
		// Predicates short-circuit in order, so predicate i is evaluated on
		// the tuples passing predicates 0..i-1 (§3, "Table Scan Operators").
		reach := 1.0
		for i, pred := range n.Predicates {
			st.ExprPct[pred.Class()] += reach
			reach *= n.PredSel[i].Get(mode)
		}
	}
}

// materializedWidth returns the byte width a build stage materializes per
// tuple. Joins store only key and payload columns (cf. the paper's Q5
// example where the hash table stores a single 8-byte key).
func materializedWidth(n *plan.Node) int {
	if n.Op == plan.HashJoinOp {
		return n.HashTupleWidth()
	}
	return n.InWidth()
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
