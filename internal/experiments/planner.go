package experiments

import (
	"fmt"
	"strings"
	"time"

	"t3/internal/engine/exec"
	"t3/internal/joinorder"
	"t3/internal/workload"
)

// Planner is the planner-costing experiment (t3bench planner →
// EXPERIMENTS.md): per synthetic join graph, DPsize enumeration wall-clock
// and model/oracle-call accounting across costing paths, all on
// treec.Packed — scalar DPSize with the open-pipeline memo, and
// level-batched DPSizeBatched over the rows kernel — plus plan-quality
// (executed T3 vs Cout trees, Table-6-style). The batched-dispatch
// scheduling regimes are RunScheduling's. The same four graphs are bench/'s
// plan_enum workload, which is where enumeration time is measured over
// repeats.
type Planner struct {
	Cases []PlannerCase
}

// PlannerCase is one join graph's enumeration comparison.
type PlannerCase struct {
	Spec      string
	Shape     string
	Relations int
	DPSteps   int
	// OracleSubsets is how many distinct subsets the shared, pre-warmed memo
	// oracle computed: every timed run below pays map lookups only, so oracle
	// cost cannot masquerade as model cost.
	OracleSubsets int
	Rows          []PlannerRow

	// Plan quality: measured execution of the chosen trees (Table-6-style).
	CoutTree      string
	T3Tree        string
	CoutExec      time.Duration
	T3Exec        time.Duration
	QualityUplift float64 // CoutExec / T3Exec
}

// PlannerRow is one costing path's timed enumeration (best of reps).
type PlannerRow struct {
	Path       string
	WallClock  time.Duration
	ModelCalls int
	Batches    int
	MaxBatch   int
	// Pruned counts candidates the batched path rejected through the exact
	// incumbent bound without featurizing or predicting them.
	Pruned int
	Cost   float64
	// Speedup is baseline wall-clock / this wall-clock.
	Speedup float64
}

// plannerCases are the benchmarked synthetic join graphs. The 8+ relation
// cases carry the paper-style headline: batched costing vs the scalar path,
// both on the packed tier.
var plannerCases = []struct {
	shape string
	n     int
}{
	{workload.ShapeChain, 10},
	{workload.ShapeStar, 10},
	{workload.ShapeClique, 8},
	{workload.ShapeChain, 12},
}

// plannerReps is how many times each path is enumerated; the minimum wall
// clock is reported.
const plannerReps = 3

// RunPlanner benchmarks join-order enumeration across costing paths.
func (e *Env) RunPlanner() (*Planner, error) {
	m, err := e.T3()
	if err != nil {
		return nil, err
	}
	packed, reg := m.Packed(), m.Registry()
	res := &Planner{}

	for ci, c := range plannerCases {
		inst, sp := workload.SyntheticJoinBench(c.shape, c.n, 4000, int64(101+ci))
		oracle := joinorder.NewMemoOracle(joinorder.NewEstOracle(inst, sp), c.n)
		pc := PlannerCase{Spec: sp.Name, Shape: c.shape, Relations: c.n}

		// Warm the oracle memo so every timed run pays lookups only.
		warm := joinorder.NewT3Cost(packed, reg, inst, sp, oracle)
		if _, err := joinorder.DPSize(sp, warm); err != nil {
			return nil, fmt.Errorf("planner %s: %w", sp.Name, err)
		}
		pc.OracleSubsets = joinorder.OracleCalls(oracle)

		type path struct {
			name string
			run  func() (*joinorder.Result, error)
		}
		// The first path is the baseline: every row's speed-up is against its
		// wall clock, and every path must reproduce its cost and tree.
		paths := []path{
			{"scalar-packed-memo", func() (*joinorder.Result, error) {
				return joinorder.DPSize(sp, joinorder.NewT3Cost(packed, reg, inst, sp, oracle))
			}},
			{"batched-w1", func() (*joinorder.Result, error) {
				return joinorder.DPSizeBatched(sp, packed, reg, inst, oracle, joinorder.BatchConfig{Workers: 1})
			}},
			{"batched", func() (*joinorder.Result, error) {
				return joinorder.DPSizeBatched(sp, packed, reg, inst, oracle, joinorder.BatchConfig{})
			}},
		}

		var base *joinorder.Result
		var baseWall time.Duration
		for _, p := range paths {
			var best *joinorder.Result
			var bestWall time.Duration
			for rep := 0; rep < plannerReps; rep++ {
				start := time.Now()
				r, err := p.run()
				wall := time.Since(start)
				if err != nil {
					return nil, fmt.Errorf("planner %s %s: %w", sp.Name, p.name, err)
				}
				if best == nil || wall < bestWall {
					best, bestWall = r, wall
				}
			}
			if base == nil {
				base, baseWall = best, bestWall
				pc.DPSteps = best.DPSteps
			}
			// The determinism contract: batched must be bit-identical to the
			// scalar reference on the same packed predictor.
			if best.Cost != base.Cost || best.Tree.String() != base.Tree.String() {
				return nil, fmt.Errorf("planner %s: %s diverged from scalar-packed reference (cost %v vs %v)",
					sp.Name, p.name, best.Cost, base.Cost)
			}
			pc.Rows = append(pc.Rows, PlannerRow{
				Path:       p.name,
				WallClock:  bestWall,
				ModelCalls: best.ModelCalls,
				Batches:    best.Batches,
				MaxBatch:   best.MaxBatch,
				Pruned:     best.Pruned,
				Cost:       best.Cost,
				Speedup:    float64(baseWall) / float64(bestWall),
			})
		}

		// Plan quality: execute the T3-chosen tree against the Cout tree.
		coutRes, err := joinorder.DPSize(sp, joinorder.NewCout(oracle))
		if err != nil {
			return nil, fmt.Errorf("planner %s cout: %w", sp.Name, err)
		}
		t3Res, err := joinorder.DPSizeBatched(sp, packed, reg, inst, oracle, joinorder.BatchConfig{})
		if err != nil {
			return nil, err
		}
		pc.CoutTree = coutRes.Tree.String()
		pc.T3Tree = t3Res.Tree.String()
		if pc.CoutExec, err = execTree(inst, sp, coutRes.Tree, oracle); err != nil {
			return nil, fmt.Errorf("planner %s cout exec: %w", sp.Name, err)
		}
		if pc.T3Exec, err = execTree(inst, sp, t3Res.Tree, oracle); err != nil {
			return nil, fmt.Errorf("planner %s t3 exec: %w", sp.Name, err)
		}
		if pc.T3Exec > 0 {
			pc.QualityUplift = float64(pc.CoutExec) / float64(pc.T3Exec)
		}
		res.Cases = append(res.Cases, pc)
	}

	return res, nil
}

// execTree executes the tree's physical plan (engine-style smaller-side
// builds) twice and returns the faster run.
func execTree(inst *workload.Instance, sp *workload.JoinSpec, tree *joinorder.Tree, oracle joinorder.Oracle) (time.Duration, error) {
	var best time.Duration
	for i := 0; i < 2; i++ {
		p := joinorder.TreeToPlanSides(inst, sp, tree, oracle)
		start := time.Now()
		if _, err := exec.Run(p, false); err != nil {
			return 0, err
		}
		if d := time.Since(start); i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// Format renders the planner benchmark as tables.
func (p *Planner) Format() string {
	var sb strings.Builder
	sb.WriteString("Planner costing (§5.5-style): DPsize enumeration wall-clock by costing path\n")
	for _, c := range p.Cases {
		fmt.Fprintf(&sb, "\n%s (%d rels, %d DP steps, %d oracle subsets)\n",
			c.Spec, c.Relations, c.DPSteps, c.OracleSubsets)
		fmt.Fprintf(&sb, "  %-20s %10s %12s %8s %9s %7s %8s\n",
			"path", "wall", "model calls", "batches", "max batch", "pruned", "speedup")
		for _, r := range c.Rows {
			fmt.Fprintf(&sb, "  %-20s %10s %12d %8d %9d %7d %7.2fx\n",
				r.Path, fmtDur(r.WallClock), r.ModelCalls, r.Batches, r.MaxBatch, r.Pruned, r.Speedup)
		}
		fmt.Fprintf(&sb, "  plan quality: Cout %s vs T3 %s -> %.2fx (%s vs %s)\n",
			fmtDur(c.CoutExec), fmtDur(c.T3Exec), c.QualityUplift, c.CoutTree, c.T3Tree)
	}
	return sb.String()
}
