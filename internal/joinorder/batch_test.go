package joinorder

import (
	"math"
	"math/rand"
	"testing"

	"t3"
	"t3/internal/benchdata"
	"t3/internal/engine/plan"
	"t3/internal/engine/stats"
	"t3/internal/feature"
	"t3/internal/gbdt"
	"t3/internal/treec"
	"t3/internal/workload"
)

// plannerT3 trains a small T3-shaped model with splits across several planner
// features and packs it: the scalar path and the batched path share this one
// prediction function.
func plannerT3(t testing.TB) (*treec.Packed, *feature.Registry) {
	reg := feature.NewDefaultRegistry()
	return treec.Pack(plannerModel(t, reg)), reg
}

// plannerModel trains plannerT3's model over the vectors of registry reg.
func plannerModel(t testing.TB, reg *feature.Registry) *gbdt.Model {
	t.Helper()
	n := 600
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		v := make([]float64, reg.NumFeatures())
		for f := 0; f < 12; f++ {
			v[(f*13)%reg.NumFeatures()] = float64((i*(f+3))%29) * 7.5
		}
		xs[i] = v
		ys[i] = benchdata.TargetTransform(1e-8 * float64(1+i%11))
	}
	p := gbdt.DefaultParams()
	p.NumRounds = 20
	p.ValidationFraction = 0
	m, _, err := gbdt.Train(p, xs, ys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestBatchedMatchesScalar is the batched-vs-scalar determinism property:
// across seeded chain/star/clique graphs of 4–12 relations, every worker
// count and flush size must return bit-identical costs and the same optimal
// tree as the scalar DPSize reference running the same packed predictor.
func TestBatchedMatchesScalar(t *testing.T) {
	packed, reg := plannerT3(t)
	cases := []struct {
		shape string
		n     int
	}{
		{workload.ShapeChain, 4},
		{workload.ShapeChain, 7},
		{workload.ShapeChain, 12},
		{workload.ShapeStar, 5},
		{workload.ShapeStar, 9},
		{workload.ShapeStar, 12},
		{workload.ShapeClique, 4},
		{workload.ShapeClique, 6},
		{workload.ShapeClique, 8},
	}
	for _, c := range cases {
		inst, sp := workload.SyntheticJoinBench(c.shape, c.n, 256, int64(41*c.n))
		cm := NewT3Cost(packed, reg, inst, sp, NewEstOracle(inst, sp))
		ref, err := DPSize(sp, cm)
		if err != nil {
			t.Fatalf("%s: scalar: %v", sp.Name, err)
		}
		for _, workers := range []int{1, 4, 8} {
			for _, maxBatch := range []int{0, 7, 64} {
				cfg := BatchConfig{Workers: workers, MaxBatch: maxBatch}
				res, err := DPSizeBatched(sp, packed, reg, inst, NewEstOracle(inst, sp), cfg)
				if err != nil {
					t.Fatalf("%s w%d mb%d: %v", sp.Name, workers, maxBatch, err)
				}
				if res.Cost != ref.Cost {
					t.Errorf("%s w%d mb%d: cost %v != scalar %v", sp.Name, workers, maxBatch, res.Cost, ref.Cost)
				}
				if got, want := res.Tree.String(), ref.Tree.String(); got != want {
					t.Errorf("%s w%d mb%d: tree %s != scalar %s", sp.Name, workers, maxBatch, got, want)
				}
				if res.DPSteps != ref.DPSteps {
					t.Errorf("%s w%d mb%d: dp steps %d != scalar %d", sp.Name, workers, maxBatch, res.DPSteps, ref.DPSteps)
				}
				if res.Batches <= 0 || res.MaxBatch <= 0 {
					t.Errorf("%s w%d mb%d: batch accounting missing (%d batches, max %d)", sp.Name, workers, maxBatch, res.Batches, res.MaxBatch)
				}
				if maxBatch > 0 && res.MaxBatch > maxBatch {
					t.Errorf("%s w%d mb%d: flush of %d rows exceeds cap", sp.Name, workers, maxBatch, res.MaxBatch)
				}
				if res.ModelCalls > ref.ModelCalls {
					t.Errorf("%s w%d mb%d: batched predicts %d rows > scalar's %d calls", sp.Name, workers, maxBatch, res.ModelCalls, ref.ModelCalls)
				}
			}
		}
	}
}

// TestBatchedSharedBuildSlot: at a star's second level every key is zero and
// no subset has a winner yet, so the first wave holds the first-gathered
// candidate of every hub–leaf subset — all of them building on the hub. The
// hub's close row is priced once, after the wave's extension rows, and every
// extension reads it, whatever order the wave's rows and replays take; with
// flushes of two or three rows it also comes back in a later kernel call than
// most of them. Cost bits and the tree must still be DPSize's.
func TestBatchedSharedBuildSlot(t *testing.T) {
	packed, reg := plannerT3(t)
	for _, n := range []int{3, 6, 11} {
		inst, sp := workload.SyntheticJoinBench(workload.ShapeStar, n, 256, int64(17*n))
		ref, err := DPSize(sp, NewT3Cost(packed, reg, inst, sp, NewEstOracle(inst, sp)))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			for _, maxBatch := range []int{0, 2, 3, 9} {
				res, err := DPSizeBatched(sp, packed, reg, inst, NewEstOracle(inst, sp), BatchConfig{Workers: workers, MaxBatch: maxBatch})
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(res.Cost) != math.Float64bits(ref.Cost) || res.Tree.String() != ref.Tree.String() {
					t.Errorf("star-%d w%d mb%d: %v %s, scalar %v %s", n, workers, maxBatch, res.Cost, res.Tree, ref.Cost, ref.Tree)
				}
			}
		}
	}
}

// TestBatchedSingleRelation covers the degenerate one-relation spec, where the
// whole plan is the scan feeding the aggregate and the aggregate's scan: both
// paths must agree, and price what PredictPlan predicts for that plan.
func TestBatchedSingleRelation(t *testing.T) {
	reg := feature.NewDefaultRegistry()
	gbm := plannerModel(t, reg)
	packed := treec.Pack(gbm)
	inst, sp := workload.SyntheticJoinBench(workload.ShapeChain, 1, 64, 3)
	ref, err := DPSize(sp, NewT3Cost(packed, reg, inst, sp, NewEstOracle(inst, sp)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := DPSizeBatched(sp, packed, reg, inst, NewEstOracle(inst, sp), BatchConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != ref.Cost || res.Tree.String() != ref.Tree.String() {
		t.Fatalf("single-relation mismatch: %v/%s vs %v/%s", res.Cost, res.Tree, ref.Cost, ref.Tree)
	}
	// One model call on both paths: the lone pipeline. The aggregate's scan
	// pipeline is priced but, as Result.ModelCalls documents, not counted.
	if res.ModelCalls != 1 || ref.ModelCalls != 1 {
		t.Fatalf("single-relation model calls: batched %d, scalar %d, want 1 each", res.ModelCalls, ref.ModelCalls)
	}

	model, err := t3.NewModel(gbm)
	if err != nil {
		t.Fatal(err)
	}
	root := TreeToPlan(inst, sp, res.Tree)
	(&stats.Estimator{DB: inst.Stats}).Estimate(root)
	_, preds := model.PredictPlan(root, plan.EstCards)
	sum := 0.0
	for _, p := range preds {
		sum += p.PerTupleSeconds * p.Cardinality
	}
	if len(preds) != 2 || math.Abs(res.Cost-sum) > 1e-9 {
		t.Fatalf("single-relation cost %v s, PredictPlan's %d pipelines sum to %v s", res.Cost, len(preds), sum)
	}
}

// mixedWidthSpec is a cyclic query over the imdb-lite tables whose edges
// join 8-byte ids and 16-byte strings, so that the key a build side is hashed
// on — the build column of the first edge crossing to the probe side, as
// TreeToPlan picks it — depends on which probe side it meets.
func mixedWidthSpec() *workload.JoinSpec {
	return &workload.JoinSpec{
		Name: "mixed-width",
		Rels: []workload.RelSpec{
			{Table: "name", ScanCols: []int{0, 2}},         // id, n_name
			{Table: "company_name", ScanCols: []int{0, 2}}, // id, cn_name
			{Table: "keyword", ScanCols: []int{0, 1}},      // id, k_keyword
			{Table: "title", ScanCols: []int{0, 3}},        // id, t_title
			{Table: "kind_type", ScanCols: []int{0, 1}},    // id, kind
		},
		Edges: []workload.EdgeSpec{
			{A: 0, B: 1, ACol: 1, BCol: 1}, // strings
			{A: 1, B: 2},
			{A: 2, B: 3, ACol: 1, BCol: 1}, // strings
			{A: 3, B: 4},
			{A: 0, B: 3},
			{A: 4, B: 1, ACol: 1, BCol: 1}, // strings
		},
	}
}

// TestBatchedMixedKeyWidths: where a build side meets probe sides over keys
// of different widths, its close rows differ, and the batched path must price
// one per width instead of reusing the first. The model here splits on
// nothing but HashJoin_Build_in_size, so a close row priced for the wrong
// width shows in the cost. Edge order decides which key TreeToPlan takes, so
// the spec runs under many edge orders.
func TestBatchedMixedKeyWidths(t *testing.T) {
	reg := feature.NewDefaultRegistry()
	loc := reg.Location(feature.StageKey{Op: plan.HashJoinOp, Stage: plan.StageBuild}, feature.FInSize)
	xs := make([][]float64, 400)
	ys := make([]float64, len(xs))
	for i := range xs {
		xs[i] = make([]float64, reg.NumFeatures())
		xs[i][loc] = float64(8 * (i % 12))
		ys[i] = benchdata.TargetTransform(1e-8 * (1 + xs[i][loc]))
	}
	p := gbdt.DefaultParams()
	p.NumRounds = 20
	p.ValidationFraction = 0
	gbm, _, err := gbdt.Train(p, xs, ys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	packed := treec.Pack(gbm)

	inst := imdbInst(t)
	base := mixedWidthSpec()
	rng := rand.New(rand.NewSource(5))
	for k := 0; k < 20; k++ {
		sp := &workload.JoinSpec{Name: base.Name, Rels: base.Rels}
		for _, i := range rng.Perm(len(base.Edges)) {
			sp.Edges = append(sp.Edges, base.Edges[i])
		}
		ref, err := DPSize(sp, NewT3Cost(packed, reg, inst, sp, NewEstOracle(inst, sp)))
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []BatchConfig{{Workers: 1}, {Workers: 2, MaxBatch: 3}} {
			res, err := DPSizeBatched(sp, packed, reg, inst, NewEstOracle(inst, sp), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(res.Cost) != math.Float64bits(ref.Cost) || res.Tree.String() != ref.Tree.String() {
				t.Fatalf("edge order %d, %+v: %v %s, scalar %v %s", k, cfg, res.Cost, res.Tree, ref.Cost, ref.Tree)
			}
		}
	}
}

// noMemoPrice wraps a cost model and counts what the scalar path would pay
// without T3CostModel's open-pipeline memo: one prediction per Join (the
// closed build side) and one per Total (the open side, re-predicted on every
// comparison). Its Calls is that count, so DPSize reports it as ModelCalls.
type noMemoPrice struct {
	CostModel[*t3State]
	calls int
}

func (c *noMemoPrice) Join(build, probe *t3State, buildSet, probeSet uint64) *t3State {
	c.calls++
	return c.CostModel.Join(build, probe, buildSet, probeSet)
}

func (c *noMemoPrice) Total(s *t3State) float64 {
	c.calls++
	return c.CostModel.Total(s)
}

func (c *noMemoPrice) Calls() int { return c.calls }

// TestTotalMemoizationCutsCalls is the Calls() delta test for the Total memo:
// the memoized model must issue strictly fewer predictions than the
// re-predict-per-Total price of the same enumeration, which in turn is the
// classic >= 2x-Cout price.
func TestTotalMemoizationCutsCalls(t *testing.T) {
	packed, reg := plannerT3(t)
	inst, sp := workload.SyntheticJoinBench(workload.ShapeStar, 7, 256, 11)

	memo := NewT3Cost(packed, reg, inst, sp, NewEstOracle(inst, sp))
	resNo, err := DPSize(sp, &noMemoPrice{CostModel: memo})
	if err != nil {
		t.Fatal(err)
	}
	if memo.Calls() >= resNo.ModelCalls {
		t.Errorf("memoized calls %d not below no-memo calls %d", memo.Calls(), resNo.ModelCalls)
	}
	coutRes, err := DPSize(sp, NewCout(NewEstOracle(inst, sp)))
	if err != nil {
		t.Fatal(err)
	}
	if resNo.ModelCalls < 2*coutRes.ModelCalls {
		t.Errorf("no-memo calls %d < 2x Cout calls %d", resNo.ModelCalls, coutRes.ModelCalls)
	}
}

// TestBatchedCallFloor restates the planner's speed-up floor on counted work:
// on the dense 8-relation clique, where the enumeration headline lives,
// level-batched costing with exact incumbent pruning predicts at most a third
// of the rows the scalar path would without the open-pipeline memo. The
// scalar count is a property of the graph alone (17 657); the batched count
// depends on how much the model lets the incumbent prune, so this runs on the
// checked-in default model (1 642; 6 304 with pruning disabled). Wall-clock
// enumeration time is bench/'s joinorder.enum_ms.clique-8.
func TestBatchedCallFloor(t *testing.T) {
	gbm, err := gbdt.Load("../../models/t3_default.json")
	if err != nil {
		t.Fatal(err)
	}
	packed, reg := treec.Pack(gbm), feature.NewDefaultRegistry()
	inst, sp := workload.SyntheticJoinBench(workload.ShapeClique, 8, 4000, 103)

	scalar, err := DPSize(sp, &noMemoPrice{CostModel: NewT3Cost(packed, reg, inst, sp, NewEstOracle(inst, sp))})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := DPSizeBatched(sp, packed, reg, inst, NewEstOracle(inst, sp), BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("model calls: scalar no-memo %d, batched %d (%d pruned)", scalar.ModelCalls, batched.ModelCalls, batched.Pruned)
	if 3*batched.ModelCalls > scalar.ModelCalls {
		t.Errorf("batched predicts %d rows, more than a third of the scalar no-memo path's %d calls",
			batched.ModelCalls, scalar.ModelCalls)
	}
}

// batchedSteadyStateAllocBound is the CI-guarded allocation bound on one
// steady-state batched enumeration of the chain-10 spec below (scratch warm in
// the pool). The run still constructs its per-spec featurizer and the result
// tree, both O(relations); the DP loop itself — hundreds of candidates — must
// stay allocation-free, which is what a bound far below the candidate count
// proves.
const batchedSteadyStateAllocBound = 200

// TestBatchedSteadyStateAllocs pins the allocation bound of the batched
// enumeration loop.
func TestBatchedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts inflated under -race")
	}
	packed, reg := plannerT3(t)
	inst, sp := workload.SyntheticJoinBench(workload.ShapeChain, 10, 256, 5)
	oracle := NewMemoOracle(NewEstOracle(inst, sp), len(sp.Rels))
	cfg := BatchConfig{Workers: 1}
	if _, err := DPSizeBatched(sp, packed, reg, inst, oracle, cfg); err != nil {
		t.Fatal(err)
	}
	res, _ := DPSizeBatched(sp, packed, reg, inst, oracle, cfg)
	avg := testing.AllocsPerRun(10, func() {
		if _, err := DPSizeBatched(sp, packed, reg, inst, oracle, cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("steady-state: %.0f allocs/run over %d DP steps", avg, res.DPSteps)
	if avg > batchedSteadyStateAllocBound {
		t.Errorf("steady-state batched enumeration allocates %.0f/run over %d DP steps, bound %d",
			avg, res.DPSteps, batchedSteadyStateAllocBound)
	}
	if res.DPSteps < batchedSteadyStateAllocBound {
		t.Fatalf("spec too small for a meaningful bound: %d steps", res.DPSteps)
	}
}

// TestOracleCallCounting checks the oracle-call surfacing satellite: counts
// are exposed, memo wrappers collapse repeats, and the helper tolerates
// non-counting oracles.
func TestOracleCallCounting(t *testing.T) {
	inst, sp := workload.SyntheticJoinBench(workload.ShapeChain, 5, 128, 9)
	est := NewEstOracle(inst, sp)
	mo := NewMemoOracle(est, len(sp.Rels))
	for i := 0; i < 3; i++ {
		mo.Card(0b11)
		mo.Card(0b110)
	}
	if got := OracleCalls(mo); got != 2 {
		t.Errorf("memo oracle reports %d calls, want 2", got)
	}
	if got := OracleCalls(est); got != 2 {
		t.Errorf("est oracle reports %d calls, want 2", got)
	}
	if mo.Card(0b11) != est.Card(0b11) {
		t.Error("memo oracle changed the cardinality")
	}
	// A bare Oracle without call counting reports zero.
	if got := OracleCalls(plainOracle{}); got != 0 {
		t.Errorf("plain oracle reports %d", got)
	}
}

type plainOracle struct{}

func (plainOracle) Card(set uint64) float64 { return 1 }
