package joinorder

import (
	"math"

	"t3/internal/benchdata"
	"t3/internal/engine/plan"
	"t3/internal/engine/stats"
	"t3/internal/feature"
	"t3/internal/treec"
	"t3/internal/workload"
)

// CoutModel is the Cout cost function of Cluet & Moerkotte (Eq. 3 of the
// paper): 0 for leaves, |T| + Cout(T1) + Cout(T2) for joins. Computable with
// three additions per DP step.
type CoutModel struct {
	oracle Oracle
	calls  int
}

// NewCout builds the Cout model over an oracle.
func NewCout(oracle Oracle) *CoutModel { return &CoutModel{oracle: oracle} }

// Name identifies the model.
func (c *CoutModel) Name() string { return "Cout" }

// Leaf costs nothing.
func (c *CoutModel) Leaf(rel int) State { return float64(0) }

// Join adds the new intermediate's cardinality.
func (c *CoutModel) Join(build, probe State, buildSet, probeSet uint64) State {
	c.calls++
	return build.(float64) + probe.(float64) + c.oracle.Card(buildSet|probeSet)
}

// Total returns the accumulated cost.
func (c *CoutModel) Total(s State) float64 { return s.(float64) }

// Calls reports model invocations.
func (c *CoutModel) Calls() int { return c.calls }

// scaleSeconds converts a raw model score (the transformed per-tuple target)
// into pipeline seconds for the given source cardinality. Both the scalar and
// the batched costing paths share this exact function, which is part of the
// bit-identical determinism contract between them.
func scaleSeconds(raw, srcCard float64) float64 {
	if srcCard < 1 {
		srcCard = 1
	}
	return benchdata.InverseTarget(raw) * srcCard
}

// t3State is the per-subtree memo of the T3 cost model: the total predicted
// time of all closed pipelines plus the feature vector of the still-open
// pipeline (§5.5: "we cache the cost for all other pipelines that already
// finished in the subtrees").
type t3State struct {
	closedSeconds float64
	openVec       []float64 // feature vector of the open pipeline so far
	openSrcCard   float64   // scan cardinality driving the open pipeline
	card          float64   // output cardinality of the subtree
	width         float64   // approximate tuple width of the subtree output
	// openPred memoizes the open pipeline's predicted seconds. States are
	// immutable once created — extending the pipeline builds a new state —
	// so the memo can never go stale; it is simply computed on first use.
	openPred   float64
	openPredOK bool
}

// T3CostModel prices join trees with a trained T3 model. Every DP step
// makes at most two model calls: one for the build side's now-closed
// pipeline, and one — memoized per state — for the extended open pipeline
// the first time Total compares it.
type T3CostModel struct {
	pred   *treec.Packed
	feat   *t3feat
	oracle Oracle
	calls  int

	// NoMemo disables the open-pipeline prediction memo, restoring the
	// historical behaviour of re-running the model on every Total call. It
	// exists only as the planner benchmark's scalar-packed-nomemo baseline;
	// leave it false everywhere else.
	NoMemo bool
}

// NewT3Cost builds the T3 cost model over the packed evaluator pred and its
// registry reg; the oracle supplies subset cardinalities.
func NewT3Cost(pred *treec.Packed, reg *feature.Registry, inst *workload.Instance, spec *workload.JoinSpec, oracle Oracle) *T3CostModel {
	return &T3CostModel{pred: pred, feat: newT3Feat(reg, inst, spec), oracle: oracle}
}

// Name identifies the model.
func (m *T3CostModel) Name() string { return "T3" }

// predict evaluates the compiled model for one pipeline vector and scales to
// seconds.
func (m *T3CostModel) predict(vec []float64, srcCard float64) float64 {
	m.calls++
	return scaleSeconds(m.pred.Predict(vec), srcCard)
}

// Leaf starts an open pipeline with the relation's scan stage.
func (m *T3CostModel) Leaf(rel int) State {
	vec := make([]float64, m.feat.reg.NumFeatures())
	srcCard, card, width := m.feat.leafInto(vec, rel)
	return &t3State{
		openVec:     vec,
		openSrcCard: srcCard,
		card:        card,
		width:       width,
	}
}

// Join closes the build side's pipeline with a build stage (one model call)
// and extends the probe side's open pipeline with a probe stage (the second
// model call happens lazily when Total first compares the new state).
func (m *T3CostModel) Join(build, probe State, buildSet, probeSet uint64) State {
	b := build.(*t3State)
	p := probe.(*t3State)

	// Close the build pipeline: append the hash-join build stage.
	bvec := make([]float64, len(b.openVec))
	m.feat.closeBuildInto(bvec, b.openVec, b.card, b.openSrcCard, b.width)
	closed := b.closedSeconds + p.closedSeconds + m.predict(bvec, b.openSrcCard)

	// Extend the probe pipeline.
	outCard := m.oracle.Card(buildSet | probeSet)
	pvec := make([]float64, len(p.openVec))
	m.feat.extendProbeInto(pvec, p.openVec, b.card, b.width, p.card, p.openSrcCard, p.width, outCard)
	return &t3State{
		closedSeconds: closed,
		openVec:       pvec,
		openSrcCard:   p.openSrcCard,
		card:          outCard,
		width:         p.width + b.width,
	}
}

// Total prices the state: closed pipelines plus the current open pipeline.
// The open-pipeline prediction is computed once per state and memoized —
// states are immutable, so repeated Total calls (the DP compares every
// candidate against the running best) are lookups, not model runs.
func (m *T3CostModel) Total(s State) float64 {
	st := s.(*t3State)
	if m.NoMemo {
		return st.closedSeconds + m.predict(st.openVec, st.openSrcCard)
	}
	if !st.openPredOK {
		st.openPred = m.predict(st.openVec, st.openSrcCard)
		st.openPredOK = true
	}
	return st.closedSeconds + st.openPred
}

// Calls reports model invocations.
func (m *T3CostModel) Calls() int { return m.calls }

// t3feat translates join-tree state transitions into T3 feature-vector
// edits. It is shared verbatim by the scalar cost model and the level-batched
// enumerator, so the two paths produce bit-identical vectors by construction.
type t3feat struct {
	reg  *feature.Registry
	rels *specEstimates

	// cached registry locations
	locScanCount, locScanCard, locScanOutPct                      int
	locBuildCount, locBuildCard, locBuildSize, locBuildPct        int
	locProbeCount, locProbeHT, locProbeRight, locProbeOut, locPOS int
	// scan-predicate expression-percentage locations per relation, resolved
	// once so leaf vectors need no map walks.
	exprLocs [][]exprLoc
}

// exprLoc pairs a resolved vector index with the relation's precomputed
// expression percentage.
type exprLoc struct {
	idx int
	pct float64
}

// newT3Feat resolves registry locations and derives per-relation estimates.
func newT3Feat(reg *feature.Registry, inst *workload.Instance, spec *workload.JoinSpec) *t3feat {
	f := &t3feat{reg: reg, rels: newSpecEstimator(inst, spec)}

	scan := feature.StageKey{Op: plan.TableScanOp, Stage: plan.StageScan}
	build := feature.StageKey{Op: plan.HashJoinOp, Stage: plan.StageBuild}
	probe := feature.StageKey{Op: plan.HashJoinOp, Stage: plan.StageProbe}
	f.locScanCount = reg.Location(scan, feature.FCount)
	f.locScanCard = reg.Location(scan, feature.FInCard)
	f.locScanOutPct = reg.Location(scan, feature.FOutPct)
	f.locBuildCount = reg.Location(build, feature.FCount)
	f.locBuildCard = reg.Location(build, feature.FInCard)
	f.locBuildSize = reg.Location(build, feature.FInSize)
	f.locBuildPct = reg.Location(build, feature.FInPct)
	f.locProbeCount = reg.Location(probe, feature.FCount)
	f.locProbeHT = reg.Location(probe, feature.FHTCard)
	f.locProbeRight = reg.Location(probe, feature.FRightPct)
	f.locProbeOut = reg.Location(probe, feature.FOutPct)
	f.locPOS = reg.Location(probe, feature.FOutSize)

	f.exprLocs = make([][]exprLoc, len(spec.Rels))
	for rel := range spec.Rels {
		for name, frac := range f.rels.exprPcts[rel] {
			if i := reg.Location(scan, name); i >= 0 {
				f.exprLocs[rel] = append(f.exprLocs[rel], exprLoc{idx: i, pct: frac})
			}
		}
	}
	return f
}

// leafInto writes relation rel's scan-stage vector into vec (zeroing it
// first) and returns the pipeline source cardinality, the relation's
// estimated output cardinality, and its tuple width.
func (f *t3feat) leafInto(vec []float64, rel int) (srcCard, card, width float64) {
	for i := range vec {
		vec[i] = 0
	}
	tableCard := f.rels.tableCards[rel]
	relCard := f.rels.relCards[rel]
	if f.locScanCount >= 0 {
		vec[f.locScanCount] = 1
	}
	if f.locScanCard >= 0 {
		vec[f.locScanCard] = tableCard
	}
	if f.locScanOutPct >= 0 && tableCard > 0 {
		vec[f.locScanOutPct] = relCard / tableCard
	}
	for _, el := range f.exprLocs[rel] {
		vec[el.idx] = el.pct
	}
	return tableCard, relCard, f.rels.widths[rel]
}

// closeBuildInto writes src extended by a hash-join build stage into dst
// (dst and src must not overlap): the build side's open pipeline now ends by
// materializing its hash table.
func (f *t3feat) closeBuildInto(dst, src []float64, bCard, bSrcCard, bWidth float64) {
	copy(dst, src)
	if f.locBuildCount >= 0 {
		dst[f.locBuildCount]++
	}
	if f.locBuildCard >= 0 {
		dst[f.locBuildCard] += bCard
	}
	if f.locBuildSize >= 0 {
		dst[f.locBuildSize] += bWidth
	}
	if f.locBuildPct >= 0 && bSrcCard > 0 {
		dst[f.locBuildPct] += bCard / bSrcCard
	}
}

// extendProbeInto writes src extended by a hash-join probe stage into dst
// (dst and src must not overlap): the probe side's open pipeline now flows
// through the new join.
func (f *t3feat) extendProbeInto(dst, src []float64, bCard, bWidth, pCard, pSrcCard, pWidth, outCard float64) {
	copy(dst, src)
	if f.locProbeCount >= 0 {
		dst[f.locProbeCount]++
	}
	if f.locProbeHT >= 0 {
		dst[f.locProbeHT] += bCard
	}
	if f.locProbeRight >= 0 && pSrcCard > 0 {
		dst[f.locProbeRight] += pCard / pSrcCard
	}
	if f.locProbeOut >= 0 && pSrcCard > 0 {
		dst[f.locProbeOut] += outCard / pSrcCard
	}
	if f.locPOS >= 0 {
		dst[f.locPOS] += pWidth + bWidth
	}
}

// specEstimates precomputes per-relation data shared by oracles and the T3
// cost model.
type specEstimates struct {
	tableCards []float64
	relCards   []float64 // after pushed predicates (estimated)
	widths     []float64
	exprPcts   []map[string]float64
	edgeSels   []float64
}

// newSpecEstimator derives relation-level estimates from instance
// statistics.
func newSpecEstimator(inst *workload.Instance, spec *workload.JoinSpec) *specEstimates {
	est := &stats.Estimator{DB: inst.Stats}
	se := &specEstimates{}
	for _, rel := range spec.Rels {
		scan := rel.Scan(inst)
		est.Estimate(scan)
		se.tableCards = append(se.tableCards, scan.ScanCard)
		se.relCards = append(se.relCards, scan.OutCard.Est)
		se.widths = append(se.widths, float64(scan.OutWidth()))
		pcts := make(map[string]float64)
		reach := 1.0
		for i, pred := range scan.Predicates {
			name := feature.FExprPrefix + pred.Class().String() + "_percentage"
			pcts[name] += reach
			reach *= scan.PredSel[i].Est
		}
		se.exprPcts = append(se.exprPcts, pcts)
	}
	for _, e := range spec.Edges {
		ta := inst.Table(spec.Rels[e.A].Table)
		tb := inst.Table(spec.Rels[e.B].Table)
		da := float64(inst.Stats.Tables[ta.Name].Cols[spec.Rels[e.A].ScanCols[e.ACol]].Distinct)
		db := float64(inst.Stats.Tables[tb.Name].Cols[spec.Rels[e.B].ScanCols[e.BCol]].Distinct)
		se.edgeSels = append(se.edgeSels, 1/math.Max(math.Max(da, db), 1))
	}
	return se
}
