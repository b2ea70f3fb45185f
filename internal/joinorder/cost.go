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
func (c *CoutModel) Leaf(rel int) float64 { return 0 }

// Join adds the new intermediate's cardinality.
func (c *CoutModel) Join(build, probe float64, buildSet, probeSet uint64) float64 {
	c.calls++
	return build + probe + c.oracle.Card(buildSet|probeSet)
}

// Total returns the accumulated cost.
func (c *CoutModel) Total(s float64) float64 { return s }

// Calls reports model invocations.
func (c *CoutModel) Calls() int { return c.calls }

// scaleSeconds converts a raw model score (the transformed per-tuple target)
// into pipeline seconds for the pipeline's clamped source cardinality — the
// product t3.Model.PredictPlan takes. Both the scalar and the batched costing
// paths share this exact function, which is part of the bit-identical
// determinism contract between them.
func scaleSeconds(raw, src float64) float64 {
	return benchdata.InverseTarget(raw) * src
}

// subtree is what featurizing a join needs of a subplan: the clamped source
// cardinality of its open pipeline (what that pipeline's prediction scales
// by), its output cardinality, and its output tuple width. scan is the
// relation whose scan starts the open pipeline; DPSizeBatched orders its
// arena rows by it.
type subtree struct {
	src, card, width float64
	scan             int
}

// joined is the subtree a hash join building on b and probing with p
// produces: p's pipeline stays open, and the output carries both sides'
// columns (TreeToPlan's build payload is every build column).
func joined(b, p subtree, outCard float64) subtree {
	return subtree{src: p.src, card: outCard, width: p.width + b.width, scan: p.scan}
}

// t3State is the per-subtree memo of the T3 cost model: the total predicted
// time of all closed pipelines plus the feature vector of the still-open
// pipeline (§5.5: "we cache the cost for all other pipelines that already
// finished in the subtrees").
type t3State struct {
	subtree
	closedSeconds float64
	openVec       []float64 // feature vector of the open pipeline so far
	// tail is the terminal aggregate's scan pipeline in seconds at the full
	// relation set, and 0 below it.
	tail float64
	// openPred memoizes the open pipeline's predicted seconds. States are
	// immutable once created — extending the pipeline builds a new state —
	// so the memo can never go stale; it is simply computed on first use.
	openPred   float64
	openPredOK bool
}

// T3CostModel prices join trees with a trained T3 model, on the vectors
// feature.Registry encodes for the plan TreeToPlan builds (see encoder).
// Every DP step makes at most two model calls: one for the build side's
// now-closed pipeline, and one — memoized per state — for the extended open
// pipeline the first time Total compares it. The terminal aggregate's scan
// pipeline, the same for every tree, is priced once, when the model is built,
// and is not counted in Calls (see Result.ModelCalls).
//
// Each call is the kernel's one-row path (treec.Packed.PredictRowsFrom),
// beginning from the start of the relation whose scan starts the row's
// pipeline, as DPSizeBatched prices its rows: the two enumerators share the
// kernel entry point and the starts, and differ only in how they run the
// dynamic program.
type T3CostModel struct {
	pred   *treec.Packed
	enc    *encoder
	oracle Oracle
	calls  int
	tail   float64 // the aggregate's scan pipeline in seconds
	// starts holds, per relation, its leaf vector's start in the kernel
	// (over startFeatures); start and out are one kernel call's row start and
	// result. closeVec is a scratch row: the closed build vector Join prices
	// and drops, and NewT3Cost's leaf and aggregate scan rows.
	starts   *treec.Starts
	start    [1]int32
	out      [1]float64
	closeVec []float64
}

// NewT3Cost builds the T3 cost model over the packed evaluator pred and its
// registry reg; the oracle supplies subset cardinalities. Pricing the
// aggregate's scan pipeline asks it for the full join's.
func NewT3Cost(pred *treec.Packed, reg *feature.Registry, inst *workload.Instance, spec *workload.JoinSpec, oracle Oracle) *T3CostModel {
	m := &T3CostModel{
		pred:     pred,
		enc:      newEncoder(reg, inst, spec),
		oracle:   oracle,
		starts:   pred.NewStarts(startFeatures(reg)),
		closeVec: make([]float64, reg.NumFeatures()),
	}
	for r := range spec.Rels {
		m.enc.leafInto(m.closeVec, r)
		m.starts.Add(m.closeVec)
	}
	if len(spec.Rels) > 0 {
		src := m.enc.aggScanInto(m.closeVec, oracle)
		pred.PredictRowsInto(m.closeVec, len(m.closeVec), m.out[:], nil)
		m.tail = scaleSeconds(m.out[0], src)
	}
	return m
}

// Name identifies the model.
func (m *T3CostModel) Name() string { return "T3" }

// predict evaluates the compiled model for one pipeline vector, from the
// start of relation scan, whose scan starts the pipeline, and scales to
// seconds.
func (m *T3CostModel) predict(vec []float64, src float64, scan int) float64 {
	m.calls++
	m.start[0] = int32(scan)
	m.pred.PredictRowsFrom(vec, len(vec), m.starts, m.start[:], m.out[:], nil)
	return scaleSeconds(m.out[0], src)
}

// tailFor returns the seconds the terminal aggregate's scan pipeline adds to
// a subtree over set: all of them at the full set, none below it.
func (m *T3CostModel) tailFor(set uint64) float64 {
	if set != m.enc.full {
		return 0
	}
	return m.tail
}

// Leaf starts an open pipeline with the relation's scan stage.
func (m *T3CostModel) Leaf(rel int) *t3State {
	vec := make([]float64, m.enc.reg.NumFeatures())
	t := m.enc.leafInto(vec, rel)
	return &t3State{subtree: t, openVec: vec, tail: m.tailFor(uint64(1) << uint(rel))}
}

// Join closes the build side's pipeline with a build stage (one model call)
// and extends the probe side's open pipeline with a probe stage (the second
// model call happens lazily when Total first compares the new state).
func (m *T3CostModel) Join(b, p *t3State, buildSet, probeSet uint64) *t3State {
	keyW := m.enc.rels.keyWidths(buildSet, probeSet)[0]

	// Close the build pipeline: append the hash-join build stage.
	m.enc.closeBuildInto(m.closeVec, b.openVec, b.subtree, keyW)
	closed := b.closedSeconds + p.closedSeconds + m.predict(m.closeVec, b.src, b.scan)

	// Extend the probe pipeline.
	set := buildSet | probeSet
	outCard := m.oracle.Card(set)
	pvec := make([]float64, len(p.openVec))
	t := m.enc.extendProbeInto(pvec, p.openVec, b.subtree, p.subtree, set, outCard, keyW)
	return &t3State{subtree: t, closedSeconds: closed, openVec: pvec, tail: m.tailFor(set)}
}

// Total prices the state: closed pipelines, the current open pipeline, and
// at the full set the aggregate's scan pipeline. The open-pipeline
// prediction is computed once per state and memoized — states are immutable,
// so repeated Total calls (the DP compares every candidate against the
// running best) are lookups, not model runs.
func (m *T3CostModel) Total(st *t3State) float64 {
	if !st.openPredOK {
		st.openPred = m.predict(st.openVec, st.src, st.scan)
		st.openPredOK = true
	}
	return st.closedSeconds + st.openPred + st.tail
}

// Calls reports model invocations.
func (m *T3CostModel) Calls() int { return m.calls }

// Stage keys of the plans TreeToPlan builds.
var (
	scanKey     = feature.StageKey{Op: plan.TableScanOp, Stage: plan.StageScan}
	buildKey    = feature.StageKey{Op: plan.HashJoinOp, Stage: plan.StageBuild}
	probeKey    = feature.StageKey{Op: plan.HashJoinOp, Stage: plan.StageProbe}
	aggBuildKey = feature.StageKey{Op: plan.GroupByOp, Stage: plan.StageBuild}
	aggScanKey  = feature.StageKey{Op: plan.GroupByOp, Stage: plan.StageScan}
)

// encoder writes the pipeline vectors of join trees over one spec. Each step
// fills a feature.StageStats with what the stage TreeToPlan puts in the plan
// would be annotated with — spec estimates for scans, oracle cardinalities
// for joins — and folds it in with feature.Registry.AddStage, the serving
// encoder's own code. So a tree's vectors are Registry.PlanVectors of its
// plan, and the scalar cost model and the level-batched enumerator, which
// share the encoder, produce bit-identical vectors by construction.
type encoder struct {
	reg      *feature.Registry
	rels     *specEstimates
	full     uint64  // the set of all relations
	aggWidth float64 // output tuple width of the terminal aggregate
}

// newEncoder derives the spec's estimates and the terminal aggregate's shape.
func newEncoder(reg *feature.Registry, inst *workload.Instance, spec *workload.JoinSpec) *encoder {
	return &encoder{
		reg:      reg,
		rels:     newSpecEstimator(inst, spec),
		full:     uint64(1)<<uint(len(spec.Rels)) - 1,
		aggWidth: float64(finalAgg(&plan.Node{}).OutWidth()),
	}
}

// leafInto writes relation rel's scan pipeline into vec (zeroing it first)
// and returns the relation as a subtree. A lone relation is the whole plan,
// so its pipeline also ends in the aggregate's build stage.
func (e *encoder) leafInto(vec []float64, rel int) subtree {
	clear(vec)
	st := &e.rels.scans[rel]
	src := st.In // clamped to one tuple, as feature.SourceCard clamps
	if src < 1 {
		src = 1
	}
	e.reg.AddStage(vec, scanKey, st, src)
	t := subtree{src: src, card: st.Out, width: st.OutWidth, scan: rel}
	if uint64(1)<<uint(rel) == e.full {
		e.finishInto(vec, t)
	}
	return t
}

// closeBuildInto writes b's open pipeline src, ended by the build stage of a
// hash join keyed on a column keyW bytes wide, into dst (dst and src must not
// overlap). DPSizeBatched prices one close row for every join over the same
// build side and key width, so the stage carries what those determine only:
// the default spec's HashJoin_Build features read nothing else.
func (e *encoder) closeBuildInto(dst, src []float64, b subtree, keyW float64) {
	copy(dst, src)
	st := feature.StageStats{In: b.card, HTCard: b.card, MatWidth: b.width + keyW}
	e.reg.AddStage(dst, buildKey, &st, b.src)
}

// extendProbeInto writes p's open pipeline src, extended by the probe stage
// of the join of build side b and probe side p over set, into dst (dst and
// src must not overlap), and returns the joined subtree. At the full set the
// pipeline also ends in the aggregate's build stage.
func (e *encoder) extendProbeInto(dst, src []float64, b, p subtree, set uint64, outCard, keyW float64) subtree {
	copy(dst, src)
	t := joined(b, p, outCard)
	st := feature.StageStats{In: p.card, Out: outCard, OutWidth: t.width, HTCard: b.card, MatWidth: b.width + keyW}
	e.reg.AddStage(dst, probeKey, &st, p.src)
	if set == e.full {
		e.finishInto(dst, t)
	}
	return t
}

// finishInto appends to vec the build stage of the terminal aggregate over
// the full join t: one group, fed by every tuple of t.
func (e *encoder) finishInto(vec []float64, t subtree) {
	st := feature.StageStats{In: t.card, Out: aggCard, OutWidth: e.aggWidth, HTCard: t.card, MatWidth: t.width}
	e.reg.AddStage(vec, aggBuildKey, &st, t.src)
}

// aggScanInto writes into vec (zeroing it first) the pipeline scanning the
// terminal aggregate, and returns that pipeline's clamped source cardinality.
// It is the same for every join tree: only the full join's cardinality —
// the oracle's, or a lone relation's estimate as leafInto takes it — and its
// width enter.
func (e *encoder) aggScanInto(vec []float64, oracle Oracle) float64 {
	clear(vec)
	card := e.rels.scans[0].Out
	if e.full != 1 {
		card = oracle.Card(e.full)
	}
	st := feature.StageStats{In: aggCard, Out: aggCard, OutWidth: e.aggWidth, HTCard: card, MatWidth: e.rels.fullWidth}
	e.reg.AddStage(vec, aggScanKey, &st, aggCard)
	return aggCard
}

// specEstimates precomputes per-relation data shared by oracles and the T3
// cost model.
type specEstimates struct {
	// scans holds each relation's scan stage, as the serving encoder reads it
	// off the estimated scan: In is the table cardinality, Out the estimated
	// cardinality after pushed predicates.
	scans     []feature.StageStats
	edges     []workload.EdgeSpec
	edgeSels  []float64
	edgeKeyW  [][2]float64 // byte widths of each edge's A and B column
	fullWidth float64      // output tuple width of the join of all relations
}

// newSpecEstimator derives relation-level estimates from instance
// statistics.
func newSpecEstimator(inst *workload.Instance, spec *workload.JoinSpec) *specEstimates {
	est := &stats.Estimator{DB: inst.Stats}
	se := &specEstimates{edges: spec.Edges}
	schemas := make([][]plan.ColMeta, len(spec.Rels))
	for r, rel := range spec.Rels {
		scan := rel.Scan(inst)
		est.Estimate(scan)
		schemas[r] = scan.Schema
		var st feature.StageStats
		st.Fill(&plan.Pipeline{Stages: []plan.StageRef{{Node: scan, Stage: plan.StageScan}}}, 0, plan.EstCards)
		se.scans = append(se.scans, st)
		se.fullWidth += st.OutWidth
	}
	for _, e := range spec.Edges {
		ta := inst.Table(spec.Rels[e.A].Table)
		tb := inst.Table(spec.Rels[e.B].Table)
		da := float64(inst.Stats.Tables[ta.Name].Cols[spec.Rels[e.A].ScanCols[e.ACol]].Distinct)
		db := float64(inst.Stats.Tables[tb.Name].Cols[spec.Rels[e.B].ScanCols[e.BCol]].Distinct)
		se.edgeSels = append(se.edgeSels, 1/math.Max(math.Max(da, db), 1))
		w := [2]float64{float64(schemas[e.A][e.ACol].Kind.Width()), float64(schemas[e.B][e.BCol].Kind.Width())}
		se.edgeKeyW = append(se.edgeKeyW, w)
	}
	return se
}

// keyWidths returns the byte widths of the build keys TreeToPlan joins sets
// a and b on, with a building and with b building: the building side's column
// of the first spec edge crossing the two sets. Both orientations cross at the
// same edge, so one scan of the edges serves both.
func (se *specEstimates) keyWidths(a, b uint64) [2]float64 {
	for i, e := range se.edges {
		ea, eb := uint64(1)<<uint(e.A), uint64(1)<<uint(e.B)
		switch w := se.edgeKeyW[i]; {
		case a&ea != 0 && b&eb != 0:
			return w
		case a&eb != 0 && b&ea != 0:
			return [2]float64{w[1], w[0]}
		}
	}
	return [2]float64{}
}
