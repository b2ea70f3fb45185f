package joinorder

import (
	"testing"

	"t3/internal/benchdata"
	"t3/internal/feature"
	"t3/internal/gbdt"
	"t3/internal/treec"
	"t3/internal/workload"
)

// plannerT3 trains a small T3-shaped model with splits across several planner
// features and packs it: the scalar path and the batched path share this one
// prediction function.
func plannerT3(t testing.TB) (*treec.Packed, *feature.Registry) {
	t.Helper()
	reg := feature.NewDefaultRegistry()
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
	return treec.Pack(m), reg
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

// TestBatchedSingleRelation covers the degenerate one-relation spec, where the
// whole plan is one open pipeline.
func TestBatchedSingleRelation(t *testing.T) {
	packed, reg := plannerT3(t)
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
}

// noMemoPrice wraps a cost model and counts what the scalar path would pay
// without T3CostModel's open-pipeline memo: one prediction per Join (the
// closed build side) and one per Total (the open side, re-predicted on every
// comparison). Its Calls is that count, so DPSize reports it as ModelCalls.
type noMemoPrice struct {
	CostModel
	calls int
}

func (c *noMemoPrice) Join(build, probe State, buildSet, probeSet uint64) State {
	c.calls++
	return c.CostModel.Join(build, probe, buildSet, probeSet)
}

func (c *noMemoPrice) Total(s State) float64 {
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
